package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro"
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

// FuzzSearchGet feeds arbitrary query strings to GET /search and GET
// /related through the server's full handler stack. Properties: no
// panic; /search answers 200 or 400, /related 200, 400 or 404; and every
// 200 body is byte-for-byte the JSON of the in-process Query or
// RelatedTagsProbe answer on the parameters as url.ParseQuery reads them.
func FuzzSearchGet(f *testing.F) {
	_, loaded := buildTestEngine(f)
	s := newServer(loaded)

	for _, seed := range []struct {
		related bool
		query   string
	}{
		// Shapes the test engine answers with real hits.
		{false, "q=mp3&n=2"},
		{false, "q=Audio,songs&min_score=0.05&concepts=1,0,1"},
		{false, "concepts=0,-1,99&rerank=2&user=mu1"},
		{false, "q=%20code%20,,golang&n=-1&user=cu2"},
		{false, "q=nosuchtag&n=0"},
		{true, "tag=mp3&n=3"},
		{true, "tag=golang&n=-5&nprobe=2"},
		{true, "tag=MP3&n=100"},
		// Rejections.
		{false, ""},
		{false, "q=mp3&n=abc"},
		{false, "q=mp3&min_score=NaN"},
		{false, "q=mp3&rerank=-3"},
		{false, "q=mp3&concepts=x"},
		{false, "q=mp3;n=2"},
		{false, "q=%zz"},
		{true, ""},
		{true, "tag=nosuchtag"},
		{true, "tag=mp3&n=x"},
		{true, "tag=mp3&nprobe=x"},
	} {
		f.Add(seed.related, seed.query)
	}

	f.Fuzz(func(t *testing.T, related bool, rawQuery string) {
		path := "/search"
		if related {
			path = "/related"
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code == http.StatusBadRequest, rec.Code == http.StatusNotFound && related:
			return
		default:
			t.Fatalf("status %d for GET %s?%s: %s", rec.Code, path, rawQuery, rec.Body)
		}

		params := req.URL.Query()
		atoi := func(name string, def int) int {
			v := params.Get(name)
			if v == "" {
				return def
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("200 for GET %s?%s with a bad %s (%v)", path, rawQuery, name, err)
			}
			return n
		}
		var want any
		if related {
			// The server runs without ANN, so a valid nprobe is ignored.
			atoi("nprobe", 0)
			tag := params.Get("tag")
			rel, err := loaded.RelatedTagsProbe(tag, atoi("n", 10), 0)
			if err != nil {
				t.Fatalf("200 for GET %s?%s, in-process RelatedTagsProbe: %v", path, rawQuery, err)
			}
			if rel == nil {
				rel = []cubelsi.RelatedTag{}
			}
			want = relatedResponse{Tag: tag, Related: rel}
		} else {
			q := cubelsi.NewQuery(splitList(params.Get("q")))
			q.Limit = atoi("n", q.Limit)
			if v := params.Get("min_score"); v != "" {
				ms, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("200 for GET %s?%s with a bad min_score (%v)", path, rawQuery, err)
				}
				q.MinScore = ms
			}
			for _, c := range splitList(params.Get("concepts")) {
				id, err := strconv.Atoi(c)
				if err != nil {
					t.Fatalf("200 for GET %s?%s with a bad concept %q", path, rawQuery, c)
				}
				q.Concepts = append(q.Concepts, id)
			}
			q.Rerank = atoi("rerank", 0)
			q.User = params.Get("user")
			want = searchResponse{Results: orEmpty(loaded.Query(q))}
		}
		wantRec := httptest.NewRecorder()
		httpx.WriteJSON(wantRec, http.StatusOK, want)
		if !bytes.Equal(rec.Body.Bytes(), wantRec.Body.Bytes()) {
			t.Fatalf("GET %s?%s:\nserved     %s\nin-process %s", path, rawQuery, rec.Body, wantRec.Body)
		}
	})
}
