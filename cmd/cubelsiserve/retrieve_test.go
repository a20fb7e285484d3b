package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// retrieveTestServer saves the test engine with the user-factor section
// and starts a model-backed server with the retrieval pipeline
// configured explicitly: exact source, corpus-covering depth.
func retrieveTestServer(t *testing.T) (built *cubelsi.Engine, ts *httptest.Server) {
	t.Helper()
	built, _ = buildTestEngine(t)
	path := filepath.Join(t.TempDir(), "v5.clsi")
	if err := built.SaveFile(path, cubelsi.WithUserFactors()); err != nil {
		t.Fatal(err)
	}
	srv := newLifecycleServer(nil, nil, path)
	srv.retrieveSrc = "exact"
	srv.retrieveDepth = built.Stats().Resources
	eng, err := srv.loadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	srv.eng.Store(eng)
	ts = httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return built, ts
}

func TestStatsReportsRetrievalAndUserFactors(t *testing.T) {
	built, ts := retrieveTestServer(t)
	var st statsResponse
	if resp := getJSON(t, ts, "/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st.RetrievalSource != "exact" {
		t.Fatalf("retrieval_source = %q, want exact", st.RetrievalSource)
	}
	if st.RerankDepth != built.Stats().Resources {
		t.Fatalf("rerank_depth = %d, want %d", st.RerankDepth, built.Stats().Resources)
	}
	if !st.UserFactors {
		t.Fatal("user_factors = false on a v5 model")
	}
	if st.PersonalizableUsers != built.Stats().Users {
		t.Fatalf("personalizable_users = %d, want %d", st.PersonalizableUsers, built.Stats().Users)
	}

	// A model saved without the section reports factorless.
	_, plain := buildTestEngine(t)
	pts := httptest.NewServer(newServer(plain))
	defer pts.Close()
	var pst statsResponse
	getJSON(t, pts, "/stats", &pst)
	if pst.UserFactors || pst.PersonalizableUsers != 0 || pst.RetrievalSource != "" || pst.RerankDepth != 0 {
		t.Fatalf("plain server stats = %+v, want factorless and pipeline-free", pst)
	}
}

// TestServedRerankParity pins that depth plumbing changes nothing it
// should not: a server configured with the exact source at corpus depth,
// and a plain server with a covering per-request rerank= override, both
// serve the in-process default engine's ranking bit for bit.
func TestServedRerankParity(t *testing.T) {
	built, ts := retrieveTestServer(t)
	_, loaded := buildTestEngine(t)
	plain := httptest.NewServer(newServer(loaded))
	defer plain.Close()
	depth := built.Stats().Resources

	for _, tags := range []string{"mp3", "audio,songs", "golang"} {
		ref := built.Query(cubelsi.Query{Tags: strings.Split(tags, ","), Limit: 10})
		var got searchResponse
		if resp := getJSON(t, ts, "/search?q="+tags+"&n=10", &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		mustEqualServed(t, "pipeline server", ref, got.Results)

		var adhoc searchResponse
		url := "/search?q=" + tags + "&n=10&rerank=" + strconv.Itoa(depth)
		if resp := getJSON(t, plain, url, &adhoc); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		mustEqualServed(t, "ad-hoc rerank", ref, adhoc.Results)
	}

	// Malformed depth is a client error, not a silent default.
	if resp := getJSON(t, plain, "/search?q=mp3&rerank=lots", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad rerank= status %d, want 400", resp.StatusCode)
	}
}

// TestServedUserParam covers ?user= end to end: a known user gets a
// deterministic personalized ranking, and an unknown user gets the
// shared ranking bit-identically.
func TestServedUserParam(t *testing.T) {
	built, ts := retrieveTestServer(t)

	shared := built.Query(cubelsi.Query{Tags: []string{"audio", "code"}, Limit: 10})
	var anon searchResponse
	getJSON(t, ts, "/search?q=audio,code&n=10&user=nobody-ever", &anon)
	mustEqualServed(t, "unknown user", shared, anon.Results)

	want := built.Query(cubelsi.NewQuery([]string{"audio", "code"}, cubelsi.WithLimit(10), cubelsi.WithUser("mu0")))
	var got, again searchResponse
	getJSON(t, ts, "/search?q=audio,code&n=10&user=mu0", &got)
	getJSON(t, ts, "/search?q=audio,code&n=10&user=mu0", &again)
	mustEqualServed(t, "personalized", want, got.Results)
	mustEqualServed(t, "personalized determinism", got.Results, again.Results)
}

// TestSearchRejectsOptionValuesTheLibraryRejects: a negative rerank
// depth is ErrInvalidOptions on WithRetrieval and a NaN threshold
// disables itself, so /search refuses both — on GET, on a single POST
// and on any entry of a batch — through the error envelope instead of
// serving something other than what was asked. A query with neither
// tags nor concepts is refused the same way everywhere, rather than
// answered with an empty list inside a batch.
func TestSearchRejectsOptionValuesTheLibraryRejects(t *testing.T) {
	_, ts := retrieveTestServer(t)
	for _, tc := range []struct {
		name, method, target, body string
		wantStatus                 int
		wantFragment               string
	}{
		{"get negative rerank", "GET", "/search?q=mp3&rerank=-3", "", 400, "bad rerank"},
		{"get NaN min_score", "GET", "/search?q=mp3&min_score=NaN", "", 400, "bad min_score"},
		{"get lowercase nan min_score", "GET", "/search?q=mp3&min_score=nan", "", 400, "bad min_score"},
		{"post negative rerank", "POST", "/search", `{"tags":["mp3"],"rerank":-3}`, 400, "bad rerank"},
		{"batch entry negative rerank", "POST", "/search", `{"queries":[{"tags":["mp3"]},{"tags":["audio"],"rerank":-3}]}`, 400, "query 1: bad rerank"},
		{"post NaN min_score is not JSON", "POST", "/search", `{"tags":["mp3"],"min_score":NaN}`, 400, ""},
		{"post empty tags", "POST", "/search", `{"tags":[]}`, 400, "missing tags or concepts"},
		{"batch entry empty tags", "POST", "/search", `{"queries":[{"tags":["mp3"]},{"tags":[]}]}`, 400, "query 1: missing tags or concepts"},
		{"batch entry without tags or concepts", "POST", "/search", `{"queries":[{"limit":3}]}`, 400, "query 0: missing tags or concepts"},
		{"batch entry concepts only", "POST", "/search", `{"queries":[{"concepts":[0]}]}`, 200, ""},
		{"get zero rerank keeps the engine depth", "GET", "/search?q=mp3&rerank=0", "", 200, ""},
		{"get -Inf min_score is a threshold", "GET", "/search?q=mp3&min_score=-Inf", "", 200, ""},
		{"post positive rerank", "POST", "/search", `{"tags":["mp3"],"rerank":2}`, 200, ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.target, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error string `json:"error"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
			continue
		}
		if tc.wantStatus == http.StatusOK {
			continue
		}
		if decodeErr != nil || envelope.Error == "" || !strings.Contains(envelope.Error, tc.wantFragment) {
			t.Errorf("%s: error envelope %q (decode: %v), want it to contain %q", tc.name, envelope.Error, decodeErr, tc.wantFragment)
		}
	}
}

// TestBatchRejectsTopLevelRerankAndUser keeps the batch envelope
// unambiguous: per-query options belong on the queries, not beside
// them.
func TestBatchRejectsTopLevelRerankAndUser(t *testing.T) {
	_, ts := retrieveTestServer(t)
	for _, body := range []string{
		`{"queries":[{"tags":["mp3"]}],"rerank":5}`,
		`{"queries":[{"tags":["mp3"]}],"user":"mu0"}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestBatchCarriesUserPerQuery proves the POST body fields flow through
// the embedded Query.
func TestBatchCarriesUserPerQuery(t *testing.T) {
	built, ts := retrieveTestServer(t)
	queries := []cubelsi.Query{
		cubelsi.NewQuery([]string{"audio", "code"}, cubelsi.WithLimit(5), cubelsi.WithUser("mu0")),
		cubelsi.NewQuery([]string{"audio", "code"}, cubelsi.WithLimit(5)),
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
	for i := range want {
		mustEqualServed(t, "batch entry", want[i], got.Batches[i])
	}
}

func mustEqualServed(t *testing.T, label string, want, got []cubelsi.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d results", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d: served %+v, want %+v", label, i, got[i], want[i])
		}
	}
}
