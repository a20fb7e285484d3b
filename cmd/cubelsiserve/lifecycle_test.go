package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// testAssignments is the two-community corpus shared by the lifecycle
// tests, split so the last user's code assignments form a natural delta.
func testAssignments() (base, delta []cubelsi.Assignment) {
	var all []cubelsi.Assignment
	add := func(u, tag, r string) {
		all = append(all, cubelsi.Assignment{User: u, Tag: tag, Resource: r})
	}
	musicTags := []string{"audio", "mp3", "songs"}
	codeTags := []string{"code", "golang", "compiler"}
	for ui := range 6 {
		u := fmt.Sprintf("mu%d", ui)
		for ti := range 2 {
			for _, r := range []string{"m1", "m2", "m3", "m4"} {
				add(u, musicTags[(ui+ti)%3], r)
			}
		}
	}
	for ui := range 6 {
		u := fmt.Sprintf("cu%d", ui)
		for ti := range 2 {
			for _, r := range []string{"c1", "c2", "c3", "c4"} {
				add(u, codeTags[(ui+ti)%3], r)
			}
		}
	}
	return all[:len(all)-8], all[len(all)-8:]
}

func testCfg() cubelsi.Config {
	cfg := cubelsi.DefaultConfig()
	cfg.ReductionRatios = [3]float64{2, 2, 2}
	cfg.Concepts = 2
	cfg.MinSupport = 3
	cfg.Seed = 1
	return cfg
}

// buildTestIndex builds a corpus-backed index over the base corpus.
func buildTestIndex(t *testing.T) *cubelsi.Index {
	t.Helper()
	base, _ := testAssignments()
	idx, err := cubelsi.NewIndex(context.Background(), cubelsi.FromAssignments(base),
		cubelsi.WithConfig(testCfg()))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func statsVersion(t *testing.T, ts *httptest.Server) uint64 {
	t.Helper()
	var st statsResponse
	if resp := getJSON(t, ts, "/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	return st.ModelVersion
}

// TestUpdateEndpointAppliesDelta: the update endpoint, POST
// /stream?flush=1, folds the delta in, answers the flush's UpdateReport,
// bumps the served model version, and the new assignments become
// searchable.
func TestUpdateEndpointAppliesDelta(t *testing.T) {
	_, ts := newStreamServer(t)

	if v := statsVersion(t, ts); v != 1 {
		t.Fatalf("initial model_version %d, want 1", v)
	}

	_, delta := testAssignments()
	resp, raw := postNDJSON(t, ts, "/stream?flush=1", ndjson(delta, "", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %s", resp.StatusCode, raw)
	}
	var sum streamSummary
	mustUnmarshal(t, raw, &sum)
	if rep := sum.UpdateReport; rep == nil || rep.Version != 2 || rep.AddedAssignments != len(delta) || rep.Sweeps < 1 {
		t.Fatalf("report = %+v", sum.UpdateReport)
	}
	if v := statsVersion(t, ts); v != 2 {
		t.Fatalf("post-update model_version %d, want 2", v)
	}

	// The served rankings now match a fresh build over the full corpus.
	base, _ := testAssignments()
	full, err := cubelsi.Build(context.Background(),
		cubelsi.FromAssignments(append(append([]cubelsi.Assignment(nil), base...), delta...)),
		cubelsi.WithConfig(testCfg()))
	if err != nil {
		t.Fatal(err)
	}
	want := full.Query(cubelsi.NewQuery([]string{"golang"}, cubelsi.WithLimit(10)))
	var got searchResponse
	if resp := getJSON(t, ts, "/search?q=golang&n=10", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("served %d results, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i] != want[i] {
			t.Fatalf("result %d: %+v != %+v", i, got.Results[i], want[i])
		}
	}
}

// TestReloadEndpointHotSwapsModel: POST /reload swaps model files under
// a live server and /stats reflects each file's version.
func TestReloadEndpointHotSwapsModel(t *testing.T) {
	idx := buildTestIndex(t)
	dir := t.TempDir()
	pathV1 := filepath.Join(dir, "v1.clsi")
	if err := idx.Snapshot().SaveFile(pathV1); err != nil {
		t.Fatal(err)
	}
	_, delta := testAssignments()
	if _, err := idx.Apply(context.Background(), cubelsi.Delta{Add: delta}); err != nil {
		t.Fatal(err)
	}
	pathV2 := filepath.Join(dir, "v2.clsi")
	if err := idx.Snapshot().SaveFile(pathV2); err != nil {
		t.Fatal(err)
	}

	eng, err := cubelsi.LoadFile(pathV1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newLifecycleServer(eng, nil, pathV1))
	defer ts.Close()

	if v := statsVersion(t, ts); v != 1 {
		t.Fatalf("model_version %d, want 1", v)
	}
	resp, raw := postJSON(t, ts, "/reload", reloadRequest{Model: pathV2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, raw)
	}
	var rr reloadResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ModelVersion != 2 {
		t.Fatalf("reload response = %+v", rr)
	}
	if v := statsVersion(t, ts); v != 2 {
		t.Fatalf("post-reload model_version %d, want 2", v)
	}
	// Empty body reloads the last path.
	resp, raw = postJSON(t, ts, "/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-body reload status %d: %s", resp.StatusCode, raw)
	}
}

// TestReadyzDistinctFromHealthz: a server with no model yet is live but
// not ready; one with a model is both.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	empty := httptest.NewServer(newLifecycleServer(nil, nil, ""))
	defer empty.Close()
	if resp := getJSON(t, empty, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz on empty server: %d", resp.StatusCode)
	}
	for _, path := range []string{"/readyz", "/stats", "/search?q=a", "/related?tag=a", "/clusters"} {
		resp := getJSON(t, empty, path, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on empty server: %d, want 503", path, resp.StatusCode)
		}
	}

	_, loaded := buildTestEngine(t)
	ready := httptest.NewServer(newServer(loaded))
	defer ready.Close()
	var rz map[string]any
	if resp := getJSON(t, ready, "/readyz", &rz); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on ready server: %d", resp.StatusCode)
	}
	if rz["status"] != "ready" {
		t.Fatalf("readyz = %v", rz)
	}
}

// TestErrorEnvelopeOnEveryErrorBranch table-tests every handler's error
// paths: each must answer with Content-Type application/json and the
// {"error": "..."} envelope — including the mux-level 404 and 405.
func TestErrorEnvelopeOnEveryErrorBranch(t *testing.T) {
	_, corpusTS := newStreamServer(t)
	_, loaded := buildTestEngine(t)
	modelTS := httptest.NewServer(newLifecycleServer(loaded, nil, ""))
	defer modelTS.Close()

	base, _ := testAssignments()
	removeAll := removeNDJSON(base)

	cases := []struct {
		name       string
		ts         *httptest.Server
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"search missing q", modelTS, "GET", "/search", "", http.StatusBadRequest},
		{"search bad n", modelTS, "GET", "/search?q=a&n=x", "", http.StatusBadRequest},
		{"search bad min_score", modelTS, "GET", "/search?q=a&min_score=x", "", http.StatusBadRequest},
		{"search bad concepts", modelTS, "GET", "/search?concepts=x", "", http.StatusBadRequest},
		{"post search malformed", modelTS, "POST", "/search", "{not json", http.StatusBadRequest},
		{"post search empty", modelTS, "POST", "/search", "{}", http.StatusBadRequest},
		{"post search batch top-level opts", modelTS, "POST", "/search", `{"queries":[{"tags":["audio"]}],"limit":3}`, http.StatusBadRequest},
		{"post search oversized", modelTS, "POST", "/search", `{"tags":["` + strings.Repeat("a", maxSearchBody) + `"]}`, http.StatusRequestEntityTooLarge},
		{"related missing tag", modelTS, "GET", "/related", "", http.StatusBadRequest},
		{"related bad n", modelTS, "GET", "/related?tag=audio&n=x", "", http.StatusBadRequest},
		{"related unknown tag", modelTS, "GET", "/related?tag=nosucht", "", http.StatusNotFound},
		{"unknown path", modelTS, "GET", "/nosuchpath", "", http.StatusNotFound},
		{"method not allowed", modelTS, "DELETE", "/search", "", http.StatusMethodNotAllowed},
		{"healthz wrong method", modelTS, "POST", "/healthz", "", http.StatusMethodNotAllowed},
		// The "update" rows drive the delta write path, POST /stream?flush=1;
		// the retired POST /update is an unknown route.
		{"update endpoint retired", corpusTS, "POST", "/update", `{"add":[{"user":"u","tag":"t","resource":"r"}]}`, http.StatusNotFound},
		{"update on model-backed", modelTS, "POST", "/stream?flush=1", `{"user":"u","tag":"t","resource":"r"}`, http.StatusConflict},
		{"update malformed body", corpusTS, "POST", "/stream?flush=1", "{not json", http.StatusBadRequest},
		{"update unknown field", corpusTS, "POST", "/stream?flush=1", `{"op":"bogus","user":"u","tag":"t","resource":"r"}`, http.StatusBadRequest},
		{"update empty delta", corpusTS, "POST", "/stream?flush=1", "{}", http.StatusBadRequest},
		{"update empty assignment field", corpusTS, "POST", "/stream?flush=1", `{"user":"u"}`, http.StatusBadRequest},
		{"update removing whole corpus", corpusTS, "POST", "/stream?flush=1", removeAll, http.StatusUnprocessableEntity},
		{"reload on corpus-backed", corpusTS, "POST", "/reload", "{}", http.StatusConflict},
		{"reload without model path", modelTS, "POST", "/reload", "{}", http.StatusBadRequest},
		{"reload malformed body", modelTS, "POST", "/reload", "{not json", http.StatusBadRequest},
		{"reload missing file", modelTS, "POST", "/reload", `{"model":"/nonexistent/x.clsi"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, tc.ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := tc.ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			// /stream's summary carries its counts beside the error.
			var envelope map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v", err)
			}
			if msg, _ := envelope["error"].(string); msg == "" {
				t.Fatalf("envelope = %v, want non-empty error", envelope)
			}
			if tc.wantStatus == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
				t.Fatal("405 without Allow header")
			}
		})
	}
}

// TestConcurrentSearchWithUpdateAndReload is the serving-layer race
// test: search and batch traffic hammers the server while flushed
// /stream deltas (on a corpus-backed server) and /reload (on a
// model-backed one) swap models. Run under -race in CI; the assertions
// also check monotonic versions and well-formed responses throughout.
func TestConcurrentSearchWithUpdateAndReload(t *testing.T) {
	_, delta := testAssignments()

	t.Run("update", func(t *testing.T) {
		_, ts := newStreamServer(t)
		hammer(t, ts, func() {
			for round := range 3 {
				body := ndjson(delta, "", 0)
				if round%2 == 1 {
					body = removeNDJSON(delta)
				}
				if resp, raw := postNDJSON(t, ts, "/stream?flush=1", body); resp.StatusCode != http.StatusOK {
					t.Errorf("update status %d: %s", resp.StatusCode, raw)
					return
				}
			}
		})
	})

	t.Run("reload", func(t *testing.T) {
		idx := buildTestIndex(t)
		dir := t.TempDir()
		paths := []string{filepath.Join(dir, "a.clsi"), filepath.Join(dir, "b.clsi")}
		if err := idx.Snapshot().SaveFile(paths[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.Apply(context.Background(), cubelsi.Delta{Add: delta}); err != nil {
			t.Fatal(err)
		}
		if err := idx.Snapshot().SaveFile(paths[1]); err != nil {
			t.Fatal(err)
		}
		eng, err := cubelsi.LoadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newLifecycleServer(eng, nil, paths[0]))
		defer ts.Close()
		hammer(t, ts, func() {
			for round := range 6 {
				if resp, raw := postJSON(t, ts, "/reload", reloadRequest{Model: paths[round%2]}); resp.StatusCode != http.StatusOK {
					t.Errorf("reload status %d: %s", resp.StatusCode, raw)
					return
				}
			}
		})
	})
}

// tryJSON issues a request and decodes the JSON body, returning errors
// instead of failing the test — safe to call from spawned goroutines,
// where t.Fatal would only kill the calling goroutine.
func tryJSON(ts *httptest.Server, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// hammer runs search readers concurrently with the given writer and
// asserts no torn responses and non-decreasing observed versions. The
// reader goroutines report through t.Error (never t.Fatal, which must
// not be called off the test goroutine).
func hammer(t *testing.T, ts *httptest.Server, writer func()) {
	t.Helper()
	var stop atomic.Bool
	var maxSeen atomic.Uint64
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var st statsResponse
				if code, err := tryJSON(ts, "GET", "/stats", nil, &st); err != nil || code != http.StatusOK {
					t.Errorf("stats failed under swap: code %d err %v", code, err)
					return
				}
				for {
					prev := maxSeen.Load()
					if st.ModelVersion <= prev || maxSeen.CompareAndSwap(prev, st.ModelVersion) {
						break
					}
				}
				var got searchResponse
				if code, err := tryJSON(ts, "GET", "/search?q=mp3&n=5", nil, &got); err != nil || code != http.StatusOK {
					t.Errorf("search failed under swap: code %d err %v", code, err)
					return
				}
				for i := 1; i < len(got.Results); i++ {
					if got.Results[i].Score > got.Results[i-1].Score {
						t.Error("torn read: scores out of order")
						return
					}
				}
				code, err := tryJSON(ts, "POST", "/search", map[string]any{
					"queries": []cubelsi.Query{cubelsi.NewQuery([]string{"audio"}), cubelsi.NewQuery([]string{"code"})},
				}, nil)
				if err != nil || code != http.StatusOK {
					t.Errorf("batch failed under swap: code %d err %v", code, err)
					return
				}
			}
		}()
	}
	writer()
	stop.Store(true)
	wg.Wait()
}
