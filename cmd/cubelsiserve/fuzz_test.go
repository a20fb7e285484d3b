package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/httpx"
)

// FuzzSearchPost feeds arbitrary POST /search bodies — the batch body is
// the largest client-controlled input the read path decodes — through
// the server's full handler stack. Properties: no panic; every status is
// 200, 400 or 413; and every 200 body is byte-for-byte the JSON of the
// in-process Query (single body) or SearchBatch (batch body) answer on
// the request as the handler decodes it. Plain `go test` runs only the
// seeds; `make fuzz` explores.
func FuzzSearchPost(f *testing.F) {
	_, loaded := buildTestEngine(f)
	s := newServer(loaded)

	for _, seed := range []string{
		// docs/OPERATIONS.md examples.
		`{"queries":[{"tags":["jazz"]},{"tags":["golang"],"limit":3}]}`,
		`{"tags":["jazz","sax"],"limit":2,"min_score":0.05}`,
		// Shapes the test engine answers with real hits.
		`{"tags":["mp3"],"limit":2}`,
		`{"tags":["Audio","songs"],"min_score":0.05,"concepts":[1,0,1]}`,
		`{"concepts":[0,-1,99],"rerank":2,"user":"mu1"}`,
		`{"queries":[{"tags":["code"],"user":"cu2","limit":1},{"concepts":[1]},{"tags":["nosuchtag"]}]}`,
		// Rejections.
		``,
		`{}`,
		`{"queries":[]}`,
		`{"tags":["mp3"],"min_score":NaN}`,
		`{"tags":["mp3"],"min_score":"NaN"}`,
		`{"tags":["mp3"],"rerank":-3}`,
		`{"queries":[{"tags":["mp3"]},{"tags":["code"],"rerank":-1}]}`,
		`{"queries":[{"tags":["mp3"]}],"limit":1}`,
		`{"queries":[{"limit":3}]}`,
		`{"tags":["mp3"],"bogus":1}`,
		`{"queries":[` + strings.Repeat(`{"tags":["mp3","code"],"limit":10},`, 1<<15) + `{"tags":["mp3"]}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}

		var req searchRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		var want any
		if len(req.Queries) > 0 {
			batches, err := loaded.SearchBatch(req.Queries)
			if err != nil {
				t.Fatalf("in-process SearchBatch: %v", err)
			}
			for i := range batches {
				batches[i] = orEmpty(batches[i])
			}
			want = batchResponse{Batches: batches}
		} else {
			want = searchResponse{Results: orEmpty(loaded.Query(req.Query))}
		}
		wantRec := httptest.NewRecorder()
		httpx.WriteJSON(wantRec, http.StatusOK, want)
		if !bytes.Equal(rec.Body.Bytes(), wantRec.Body.Bytes()) {
			t.Fatalf("body %q:\nserved     %s\nin-process %s", body, rec.Body, wantRec.Body)
		}
	})
}
