package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/datagen"
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

// FuzzStreamPost feeds arbitrary NDJSON bodies to POST /stream, in batch
// and firehose mode, through the server's full handler stack. Each input
// gets a fresh manual-flush ingestor over one shared index built from
// datagen.Tiny, so no idempotency window or queue leaks between inputs;
// ?flush=1 is never passed, and the ingestor is retired with a no-op
// final flush, so the shared index never changes. Properties: no panic;
// batch mode answers 200, 400 or 429 with a summary whose accepted plus
// duplicates is at most the number of non-blank lines, and the
// ingestor's Accepted counter rises by exactly the summary's accepted;
// firehose mode answers 200 with one ack per non-blank line, numbered
// 1..n in order, plus at most one trailing read-error ack that ends the
// stream early.
func FuzzStreamPost(f *testing.F) {
	corpus := datagen.Generate(datagen.Tiny()).Raw
	cfg := cubelsi.DefaultConfig()
	cfg.ReductionRatios = [3]float64{8, 8, 8}
	idx, err := cubelsi.NewIndex(context.Background(), cubelsi.FromDataset(corpus), cubelsi.WithConfig(cfg))
	if err != nil {
		f.Fatal(err)
	}
	live := map[cubelsi.Assignment]bool{}
	for _, a := range corpus.Assignments() {
		live[cubelsi.Assignment{User: corpus.Users.Name(a.User), Tag: strings.ToLower(corpus.Tags.Name(a.Tag)),
			Resource: corpus.Resources.Name(a.Resource)}] = true
	}
	const queue = 64

	rec := func(user, tag, resource string, seq int) string {
		return fmt.Sprintf(`{"user":%q,"tag":%q,"resource":%q,"client":"c","seq":%d}`+"\n", user, tag, resource, seq)
	}
	var many strings.Builder
	for i := range queue + 8 {
		many.WriteString(rec(fmt.Sprint("u", i), fmt.Sprint("t", i%5), fmt.Sprint("r", i%7), i+1))
	}
	for _, seed := range []string{
		// docs/OPERATIONS.md examples.
		`{"user":"u9","tag":"jazz","resource":"r3","client":"feed","seq":17}` + "\n" +
			`{"op":"remove","user":"u2","tag":"folk","resource":"r1","client":"feed","seq":18}` + "\n",
		// Blank and CRLF lines.
		"\n\n" + rec("u1", "Jazz", "r1", 0) + "\r\n\r\n" + `{"user":"u1","tag":"jazz","resource":"r2"}`,
		"\r\n", "",
		// Bad JSON, an unknown op, missing fields, a repeated seq.
		rec("u1", "jazz", "r1", 0) + "not json at all\n" + rec("u1", "x", "r2", 0),
		`{"op":"upsert","user":"u1","tag":"jazz","resource":"r1"}`,
		`{"user":"u1","tag":"jazz"}` + "\n{}\n",
		rec("u1", "jazz", "r1", 3) + rec("u2", "folk", "r2", 3),
		// A line over 1 MiB, then a record the scanner never reaches.
		rec("u1", strings.Repeat("x", maxStreamLine), "r1", 0) + rec("u1", "jazz", "r1", 0),
		// More records than the queue holds.
		many.String(),
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}

	f.Fuzz(func(t *testing.T, body []byte, firehose bool) {
		s := newLifecycleServer(nil, idx, "")
		if err := s.enableStreaming(cubelsi.WithFlushEvery(1<<20), cubelsi.WithFlushInterval(time.Hour),
			cubelsi.WithFlushDrift(-1), cubelsi.WithQueueCapacity(queue)); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(body), "\n")
		nonBlank := 0
		for i := range lines {
			if lines[i] = strings.TrimSuffix(lines[i], "\r"); lines[i] != "" { // as bufio.ScanLines reads them
				nonBlank++
			}
		}
		path := map[bool]string{false: "/stream", true: "/stream?firehose=1"}[firehose]
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		accepted := s.ing.Stats().Accepted

		if firehose {
			if w.Code != http.StatusOK {
				t.Fatalf("firehose status %d: %s", w.Code, w.Body)
			}
			var acks []streamAck
			dec := json.NewDecoder(w.Body)
			for dec.More() {
				var a streamAck
				if err := dec.Decode(&a); err != nil {
					t.Fatalf("ack stream: %v", err)
				}
				acks = append(acks, a)
			}
			n := len(acks)
			if n > 0 && strings.HasPrefix(acks[n-1].Error, "read stream:") {
				if n--; acks[n].Line != n+1 || n > nonBlank {
					t.Fatalf("read-error ack %+v after %d acks for %d lines", acks[n], n, nonBlank)
				}
			} else if n != nonBlank {
				t.Fatalf("%d acks for %d non-blank lines: %s", n, nonBlank, w.Body)
			}
			var acked uint64
			for i, a := range acks[:n] {
				if a.Line != i+1 {
					t.Fatalf("ack %d numbers line %d", i, a.Line)
				}
				if a.Status == "accepted" {
					acked++
				}
			}
			if acked != accepted {
				t.Fatalf("%d accepted acks, ingestor accepted %d", acked, accepted)
			}
		} else {
			var sum streamSummary
			if err := json.Unmarshal(w.Body.Bytes(), &sum); err != nil {
				t.Fatalf("summary %q: %v", w.Body, err)
			}
			switch {
			case w.Code != http.StatusOK && w.Code != http.StatusBadRequest && w.Code != http.StatusTooManyRequests:
				t.Fatalf("batch status %d: %s", w.Code, w.Body)
			case sum.Accepted+sum.Duplicates > nonBlank:
				t.Fatalf("summary %+v for %d non-blank lines", sum, nonBlank)
			case uint64(sum.Accepted) != accepted:
				t.Fatalf("summary accepted %d, ingestor accepted %d", sum.Accepted, accepted)
			}
		}

		// Retire the ingestor without touching the shared index: re-offer
		// every triple the body names with the op that is a no-op against
		// the corpus (the later op wins for a queued triple), so Close's
		// final flush applies an empty delta.
		for _, ln := range lines {
			var r cubelsi.StreamRecord
			if json.Unmarshal([]byte(ln), &r) == nil {
				r.Op, r.Client, r.Seq = "remove", "", 0
				if live[cubelsi.Assignment{User: r.User, Tag: strings.ToLower(r.Tag), Resource: r.Resource}] {
					r.Op = "add"
				}
				_, _ = s.ing.Offer(r)
			}
		}
		if err := s.ing.Close(); err != nil || idx.Snapshot().Version() != 1 {
			t.Fatalf("an input leaked into the shared index (close: %v, version %d)", err, idx.Snapshot().Version())
		}
	})
}
