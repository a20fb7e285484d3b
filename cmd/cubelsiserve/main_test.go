package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro"
)

// buildTestEngine builds a small two-community engine, round-trips it
// through a model file (the cubelsi -save → cubelsiserve -model flow),
// and returns both: served results must match the in-process original.
func buildTestEngine(t testing.TB) (built, loaded *cubelsi.Engine) {
	t.Helper()
	var assignments []cubelsi.Assignment
	add := func(u, tag, r string) {
		assignments = append(assignments, cubelsi.Assignment{User: u, Tag: tag, Resource: r})
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
	cfg := cubelsi.DefaultConfig()
	cfg.ReductionRatios = [3]float64{2, 2, 2}
	cfg.Concepts = 2
	cfg.MinSupport = 3
	cfg.Seed = 1

	eng, err := cubelsi.Build(context.Background(), cubelsi.FromAssignments(assignments), cubelsi.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.clsi")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := cubelsi.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return eng, restored
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestServedSearchMatchesInProcess(t *testing.T) {
	built, loaded := buildTestEngine(t)
	ts := httptest.NewServer(newServer(loaded))
	defer ts.Close()

	for _, q := range [][]string{{"mp3"}, {"audio", "songs"}, {"golang"}} {
		want := built.Query(cubelsi.NewQuery(q, cubelsi.WithLimit(10)))
		var got searchResponse
		url := "/search?q="
		for i, tag := range q {
			if i > 0 {
				url += ","
			}
			url += tag
		}
		resp := getJSON(t, ts, url+"&n=10", &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("query %v: served %d results, in-process %d", q, len(got.Results), len(want))
		}
		for i := range want {
			if got.Results[i] != want[i] {
				t.Fatalf("query %v result %d: served %+v, in-process %+v", q, i, got.Results[i], want[i])
			}
		}
	}
}

func TestServedBatchMatchesSearchBatch(t *testing.T) {
	built, loaded := buildTestEngine(t)
	ts := httptest.NewServer(newServer(loaded))
	defer ts.Close()

	queries := []cubelsi.Query{
		cubelsi.NewQuery([]string{"mp3"}, cubelsi.WithLimit(3)),
		cubelsi.NewQuery([]string{"code"}, cubelsi.WithMinScore(0.01)),
		cubelsi.NewQuery([]string{"nosuchtag"}),
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, err := built.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Batches) != len(want) {
		t.Fatalf("served %d batches, want %d", len(got.Batches), len(want))
	}
	for i := range want {
		if len(got.Batches[i]) != len(want[i]) {
			t.Fatalf("batch %d: served %d results, want %d", i, len(got.Batches[i]), len(want[i]))
		}
		for j := range want[i] {
			if got.Batches[i][j] != want[i][j] {
				t.Fatalf("batch %d result %d: %+v != %+v", i, j, got.Batches[i][j], want[i][j])
			}
		}
	}
}

func TestServedSinglePost(t *testing.T) {
	built, loaded := buildTestEngine(t)
	ts := httptest.NewServer(newServer(loaded))
	defer ts.Close()

	q := cubelsi.NewQuery([]string{"audio"}, cubelsi.WithLimit(5))
	body, _ := json.Marshal(q)
	resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := built.Query(q)
	if len(got.Results) != len(want) {
		t.Fatalf("served %d results, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i] != want[i] {
			t.Fatalf("result %d: %+v != %+v", i, got.Results[i], want[i])
		}
	}
}

func TestServedRelatedAndClusters(t *testing.T) {
	built, loaded := buildTestEngine(t)
	ts := httptest.NewServer(newServer(loaded))
	defer ts.Close()

	var rel relatedResponse
	if resp := getJSON(t, ts, "/related?tag=audio&n=2", &rel); resp.StatusCode != http.StatusOK {
		t.Fatalf("related status %d", resp.StatusCode)
	}
	want, err := built.RelatedTags("audio", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Related) != len(want) {
		t.Fatalf("served %d related tags, want %d", len(rel.Related), len(want))
	}
	for i := range want {
		if rel.Related[i] != want[i] {
			t.Fatalf("related %d: %+v != %+v", i, rel.Related[i], want[i])
		}
	}

	var cl clustersResponse
	if resp := getJSON(t, ts, "/clusters", &cl); resp.StatusCode != http.StatusOK {
		t.Fatalf("clusters status %d", resp.StatusCode)
	}
	if len(cl.Clusters) != built.Concepts() {
		t.Fatalf("served %d clusters, want %d", len(cl.Clusters), built.Concepts())
	}
}

func TestServedConceptOnlyQuery(t *testing.T) {
	built, loaded := buildTestEngine(t)
	ts := httptest.NewServer(newServer(loaded))
	defer ts.Close()

	c, err := built.ConceptOf("audio")
	if err != nil {
		t.Fatal(err)
	}
	want := built.Query(cubelsi.NewQuery(nil, cubelsi.WithConcepts(c)))
	if len(want) == 0 {
		t.Fatal("concept query returned nothing in-process")
	}

	var got searchResponse
	if resp := getJSON(t, ts, fmt.Sprintf("/search?concepts=%d", c), &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET concepts-only status %d", resp.StatusCode)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("served %d results, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i] != want[i] {
			t.Fatalf("result %d: %+v != %+v", i, got.Results[i], want[i])
		}
	}

	body, _ := json.Marshal(map[string]any{"concepts": []int{c}})
	resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST concepts-only status %d", resp.StatusCode)
	}
}

func TestServedStatsAndHealthz(t *testing.T) {
	built, loaded := buildTestEngine(t)
	ts := httptest.NewServer(newServer(loaded))
	defer ts.Close()

	var health map[string]string
	if resp := getJSON(t, ts, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	var st statsResponse
	if resp := getJSON(t, ts, "/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	want := built.Stats()
	if st.Tags != want.Tags || st.Resources != want.Resources ||
		st.Assignments != want.Assignments || st.Concepts != want.Concepts {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestServedErrorPaths(t *testing.T) {
	_, loaded := buildTestEngine(t)
	ts := httptest.NewServer(newServer(loaded))
	defer ts.Close()

	for path, wantStatus := range map[string]int{
		"/search":              http.StatusBadRequest, // missing q
		"/search?q=a&n=x":      http.StatusBadRequest, // bad n
		"/related":             http.StatusBadRequest, // missing tag
		"/related?tag=nosucht": http.StatusNotFound,
		"/nosuchpath":          http.StatusNotFound,
	} {
		if resp := getJSON(t, ts, path, nil); resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}

	resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed POST: status %d", resp.StatusCode)
	}

	// Top-level options on a batch request must be rejected, not
	// silently dropped.
	for _, body := range []string{
		`{"queries":[{"tags":["audio"]}],"min_score":0.9}`,
		`{"queries":[{"tags":["audio"]}],"limit":3}`,
		`{"queries":[{"tags":["audio"]}],"concepts":[0]}`,
		`{"queries":[{"tags":["audio"]}],"tags":["mp3"]}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("batch with top-level options %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}
