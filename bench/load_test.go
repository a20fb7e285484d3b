package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The raw client must frame both ways net/http answers: Content-Length
// for small bodies, chunked once a handler outgrows the server's buffer
// or flushes.
func TestConnRoundTripFraming(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1024) // 16 KiB: forces chunked
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			fmt.Fprint(w, `{"results":[]}`)
		case "/big":
			fmt.Fprint(w, big)
		case "/flushed":
			fmt.Fprint(w, "part one, ")
			w.(http.Flusher).Flush()
			fmt.Fprint(w, "part two")
		case "/echo":
			body, _ := io.ReadAll(r.Body)
			w.WriteHeader(http.StatusTeapot)
			w.Write(body)
		case "/empty":
			w.WriteHeader(http.StatusOK)
		case "/hints":
			w.WriteHeader(http.StatusEarlyHints)
			fmt.Fprint(w, "late")
		}
	}))
	defer srv.Close()

	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	// All on one keep-alive connection, twice over: a framing slip in one
	// reply would corrupt the next.
	for round := range 2 {
		for _, tc := range []struct {
			wire       []byte
			wantStatus int
			wantBody   string
		}{
			{getWire("/small"), 200, `{"results":[]}`},
			{getWire("/big"), 200, big},
			{getWire("/flushed"), 200, "part one, part two"},
			{postWire("/echo", []byte(`{"queries":[1,2,3]}`)), http.StatusTeapot, `{"queries":[1,2,3]}`},
			{getWire("/empty"), 200, ""},
		} {
			status, body, err := c.roundTrip(tc.wire, 5*time.Second)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, firstLine(tc.wire), err)
			}
			if status != tc.wantStatus || !bytes.Equal(body, []byte(tc.wantBody)) {
				t.Errorf("round %d %s: status %d, %d body bytes; want %d, %d", round, firstLine(tc.wire), status, len(body), tc.wantStatus, len(tc.wantBody))
			}
		}
	}

	// An interim response would shift the connection's framing; the client
	// says so instead of reading the 103 as the answer.
	if status, _, err := c.roundTrip(getWire("/hints"), 5*time.Second); err == nil {
		t.Errorf("interim response: status %d and no error", status)
	}
}
