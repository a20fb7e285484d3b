package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/codec"
	"repro/internal/replicate"
)

func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("unmarshal %q: %v", raw, err)
	}
}

// ndjson renders stream records as an NDJSON body. seqFrom > 0 stamps
// client sequence numbers for idempotent redelivery.
func ndjson(recs []cubelsi.Assignment, client string, seqFrom uint64) string {
	var b strings.Builder
	for i, a := range recs {
		if client != "" {
			fmt.Fprintf(&b, `{"op":"add","user":%q,"tag":%q,"resource":%q,"client":%q,"seq":%d}`+"\n",
				a.User, a.Tag, a.Resource, client, seqFrom+uint64(i))
		} else {
			fmt.Fprintf(&b, `{"op":"add","user":%q,"tag":%q,"resource":%q}`+"\n", a.User, a.Tag, a.Resource)
		}
	}
	return b.String()
}

// removeNDJSON renders remove records for recs.
func removeNDJSON(recs []cubelsi.Assignment) string {
	return strings.ReplaceAll(ndjson(recs, "", 0), `{"op":"add"`, `{"op":"remove"`)
}

func postNDJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := make([]byte, 0, 1024)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, raw
}

// newStreamServer builds a corpus-backed server with the streaming
// ingestor attached under an explicit-flush-only policy, so tests drive
// every flush deterministically via ?flush=1.
func newStreamServer(t *testing.T, extra ...cubelsi.IngestOption) (*server, *httptest.Server) {
	t.Helper()
	idx := buildTestIndex(t)
	s := newLifecycleServer(nil, idx, "")
	opts := append([]cubelsi.IngestOption{
		cubelsi.WithFlushEvery(1 << 20),
		cubelsi.WithFlushInterval(time.Hour),
		cubelsi.WithFlushDrift(-1),
	}, extra...)
	if err := s.enableStreaming(opts...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.ing.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestStreamEndpointBatchFlush: a batch POST /stream?flush=1 ingests
// the NDJSON delta log, flushes synchronously, and reports the model
// version at which the records are visible; /stats carries the stream
// section.
func TestStreamEndpointBatchFlush(t *testing.T) {
	_, ts := newStreamServer(t)
	_, delta := testAssignments()

	resp, raw := postNDJSON(t, ts, "/stream?flush=1", ndjson(delta, "", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	var sum streamSummary
	mustUnmarshal(t, raw, &sum)
	if sum.Accepted != len(delta) || sum.Duplicates != 0 || sum.ModelVersion != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if v := statsVersion(t, ts); v != 2 {
		t.Fatalf("served version %d after flush, want 2", v)
	}
	// The streamed assignments are searchable: cu5's code resources.
	var got searchResponse
	if r := getJSON(t, ts, "/search?q=compiler", &got); r.StatusCode != http.StatusOK || len(got.Results) == 0 {
		t.Fatalf("streamed delta not searchable: %d %+v", r.StatusCode, got)
	}
	var st statsResponse
	getJSON(t, ts, "/stats", &st)
	if st.Stream == nil || st.Stream.Flushes != 1 || st.Stream.Accepted != uint64(len(delta)) {
		t.Fatalf("stats stream section = %+v", st.Stream)
	}
}

// TestStreamBackpressure429: a delta log bigger than the queue answers
// 429 with a Retry-After header, reporting how much of the prefix was
// accepted.
func TestStreamBackpressure429(t *testing.T) {
	_, ts := newStreamServer(t, cubelsi.WithQueueCapacity(2))
	_, delta := testAssignments()

	resp, raw := postNDJSON(t, ts, "/stream", ndjson(delta[:4], "", 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var sum streamSummary
	mustUnmarshal(t, raw, &sum)
	if sum.Accepted != 2 || sum.RetryAfterMS <= 0 || sum.Error == "" {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestStreamIdempotentRedelivery: the same client-sequenced delta log
// posted twice applies once — the redelivery is all duplicates and does
// not bump the model version.
func TestStreamIdempotentRedelivery(t *testing.T) {
	_, ts := newStreamServer(t)
	_, delta := testAssignments()
	body := ndjson(delta, "loader", 1)

	resp, raw := postNDJSON(t, ts, "/stream?flush=1", body)
	var sum streamSummary
	mustUnmarshal(t, raw, &sum)
	if resp.StatusCode != http.StatusOK || sum.Accepted != len(delta) || sum.ModelVersion != 2 {
		t.Fatalf("first delivery: %d %+v", resp.StatusCode, sum)
	}

	resp, raw = postNDJSON(t, ts, "/stream?flush=1", body)
	mustUnmarshal(t, raw, &sum)
	if resp.StatusCode != http.StatusOK || sum.Accepted != 0 || sum.Duplicates != len(delta) {
		t.Fatalf("redelivery: %d %+v", resp.StatusCode, sum)
	}
	if sum.ModelVersion != 2 {
		t.Fatalf("redelivery bumped the model to v%d", sum.ModelVersion)
	}
}

// TestStreamFirehose: ?firehose=1 answers one ack line per record —
// accepted, duplicate, or error for a malformed line — without killing
// the connection, and a trailing flushed ack carries the version.
func TestStreamFirehose(t *testing.T) {
	_, ts := newStreamServer(t)
	_, delta := testAssignments()

	body := ndjson(delta[:1], "hose", 1) +
		"not json at all\n" +
		ndjson(delta[:1], "hose", 1) // redelivery of seq 1 -> duplicate
	resp, raw := postNDJSON(t, ts, "/stream?firehose=1&flush=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("firehose status %d: %s", resp.StatusCode, raw)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d ack lines, want 4: %s", len(lines), raw)
	}
	var acks []streamAck
	for _, ln := range lines {
		var a streamAck
		mustUnmarshal(t, []byte(ln), &a)
		acks = append(acks, a)
	}
	if acks[0].Status != "accepted" || acks[0].Seq != 1 {
		t.Fatalf("ack 0 = %+v", acks[0])
	}
	if acks[1].Status != "error" || acks[1].Error == "" {
		t.Fatalf("ack 1 = %+v", acks[1])
	}
	if acks[2].Status != "duplicate" {
		t.Fatalf("ack 2 = %+v", acks[2])
	}
	if acks[3].Status != "flushed" || acks[3].ModelVersion != 2 {
		t.Fatalf("ack 3 = %+v", acks[3])
	}
}

// TestStreamUnavailableWithoutIngestor: model-backed servers have no
// corpus to stream into and answer 409 inside the error envelope.
func TestStreamUnavailableWithoutIngestor(t *testing.T) {
	_, loaded := buildTestEngine(t)
	ts := httptest.NewServer(newServer(loaded))
	defer ts.Close()
	resp, raw := postNDJSON(t, ts, "/stream", "{}\n")
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(raw), "error") {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
}

// TestUpdateAndReloadReportModelIdentity is the rollout-scripting fix:
// the update (POST /stream?flush=1) and /reload success JSON must carry
// model_version and source_fingerprint, so operators never need a
// follow-up /stats call.
func TestUpdateAndReloadReportModelIdentity(t *testing.T) {
	s, ts := newStreamServer(t)

	_, delta := testAssignments()
	resp, raw := postNDJSON(t, ts, "/stream?flush=1", ndjson(delta, "", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %s", resp.StatusCode, raw)
	}
	var up struct {
		ModelVersion      uint64 `json:"model_version"`
		SourceFingerprint string `json:"source_fingerprint"`
		Version           uint64 `json:"version"`
	}
	mustUnmarshal(t, raw, &up)
	if up.ModelVersion != 2 || up.Version != 2 {
		t.Fatalf("update response versions = %+v", up)
	}
	if up.SourceFingerprint == "" || up.SourceFingerprint != s.idx.Snapshot().SourceFingerprint() {
		t.Fatalf("update source_fingerprint = %q", up.SourceFingerprint)
	}

	// Reload on a model-backed server.
	eng := s.idx.Snapshot()
	dir := t.TempDir()
	path := filepath.Join(dir, "model.clsi")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mts := httptest.NewServer(newLifecycleServer(nil, nil, path))
	defer mts.Close()
	resp, raw = postJSON(t, mts, "/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, raw)
	}
	var rl reloadResponse
	mustUnmarshal(t, raw, &rl)
	if rl.ModelVersion != eng.Version() || rl.SourceFingerprint != eng.SourceFingerprint() || rl.SourceFingerprint == "" {
		t.Fatalf("reload response = %+v", rl)
	}
}

// TestStreamFlushMatchesIndexApply: one delta sent through POST
// /stream?flush=1 and the same delta folded in with Index.Apply on an
// identical index publish the same snapshot — the same model_version,
// source_fingerprint, UpdateReport counts and saved model bytes.
func TestStreamFlushMatchesIndexApply(t *testing.T) {
	s, ts := newStreamServer(t)
	direct := buildTestIndex(t)
	base, delta := testAssignments()
	removed := base[:2]
	body := ndjson(delta, "", 0) + removeNDJSON(removed)

	resp, raw := postNDJSON(t, ts, "/stream?flush=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	var sum streamSummary
	mustUnmarshal(t, raw, &sum)
	want, err := direct.Apply(context.Background(), cubelsi.Delta{Add: delta, Remove: removed})
	if err != nil {
		t.Fatal(err)
	}
	eng := direct.Snapshot()
	if sum.ModelVersion != eng.Version() || sum.SourceFingerprint != eng.SourceFingerprint() {
		t.Fatalf("stream published v%d/%q, Apply v%d/%q",
			sum.ModelVersion, sum.SourceFingerprint, eng.Version(), eng.SourceFingerprint())
	}
	if want.RemovedAssignments != len(removed) {
		t.Fatalf("Apply removed %d assignments, want %d", want.RemovedAssignments, len(removed))
	}
	// Everything but the wall-clock timings must agree.
	counts := func(r cubelsi.UpdateReport) cubelsi.UpdateReport {
		r.TensorMS, r.DecomposeMS, r.EmbedMS, r.ClusterMS, r.IndexMS, r.TotalMS = 0, 0, 0, 0, 0, 0
		return r
	}
	if got := sum.UpdateReport; got == nil || counts(*got) != counts(*want) {
		t.Fatalf("stream report %+v, Apply report %+v", got, want)
	}

	var streamed, applied bytes.Buffer
	if err := errors.Join(s.idx.Snapshot().Save(&streamed), eng.Save(&applied)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), applied.Bytes()) {
		t.Fatalf("model bytes differ: %d via /stream, %d via Apply", streamed.Len(), applied.Len())
	}
}

// newReplicaServer builds a replica wired to the given writer test
// server, spooling into dir, with its pull loop NOT started — tests
// drive Sync explicitly for determinism.
func newReplicaServer(t *testing.T, writerURL, spool string) (*server, *httptest.Server) {
	t.Helper()
	s := newLifecycleServer(nil, nil, "")
	s.enableReplica(writerURL, spool, time.Hour)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestReplicationFleetConvergence: a writer streams a delta, publishes
// the snapshot, and both replicas converge to the same fingerprinted
// version through notify-then-pull.
func TestReplicationFleetConvergence(t *testing.T) {
	idx := buildTestIndex(t)
	ws := newLifecycleServer(nil, idx, "")
	spool := t.TempDir()
	ws.enableWriter(spool, nil)
	if err := ws.enableStreaming(
		cubelsi.WithFlushEvery(1<<20), cubelsi.WithFlushInterval(time.Hour), cubelsi.WithFlushDrift(-1)); err != nil {
		t.Fatal(err)
	}
	defer ws.ing.Close()
	wts := httptest.NewServer(ws)
	defer wts.Close()
	ws.publishSnapshot(idx.Snapshot()) // initial publish, as main() does

	r1, r1ts := newReplicaServer(t, wts.URL, t.TempDir())
	r2, r2ts := newReplicaServer(t, wts.URL, t.TempDir())
	// Point the writer's announcements at both replicas.
	ws.notifier = &replicate.Notifier{Targets: []string{r1ts.URL, r2ts.URL}, Retries: 1}

	// Both replicas converge on the initial model via their startup sync.
	for _, r := range []*server{r1, r2} {
		if err := r.puller.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if v := statsVersion(t, r1ts); v != 1 {
		t.Fatalf("replica1 at v%d, want 1", v)
	}

	// Stream a delta through the writer; the flush publishes and
	// notifies, and each replica's /notify kicks... but with no Run loop
	// the kick sits in the channel, so drive Sync explicitly.
	_, delta := testAssignments()
	resp, raw := postNDJSON(t, wts, "/stream?flush=1", ndjson(delta, "fleet", 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	waitForNotify(t, r1, 2)
	waitForNotify(t, r2, 2)
	for _, r := range []*server{r1, r2} {
		if err := r.puller.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Fleet-wide agreement: same version, same fingerprint as the writer.
	want := idx.Snapshot()
	for _, rts := range []*httptest.Server{r1ts, r2ts} {
		var st statsResponse
		if resp := getJSON(t, rts, "/stats", &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("replica stats status %d", resp.StatusCode)
		}
		if st.ModelVersion != 2 || st.SourceFingerprint != want.SourceFingerprint() {
			t.Fatalf("replica serves v%d/%q, want v2/%q", st.ModelVersion, st.SourceFingerprint, want.SourceFingerprint())
		}
		if st.Replication == nil || st.Replication.Role != "replica" || st.Replication.VersionSkew != 0 {
			t.Fatalf("replica replication section = %+v", st.Replication)
		}
	}
	// The writer reports its side of the plane.
	var wst statsResponse
	getJSON(t, wts, "/stats", &wst)
	if wst.Replication == nil || wst.Replication.Role != "writer" || wst.Replication.PublishedVersion != 2 {
		t.Fatalf("writer replication section = %+v", wst.Replication)
	}
	// Replica spool files are byte-identical to the writer's snapshot,
	// which is written in the current model format.
	wantBytes, err := os.ReadFile(filepath.Join(spool, "model-v2.clsi"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantBytes) < 8 || [4]byte(wantBytes[:4]) != codec.Magic || binary.LittleEndian.Uint32(wantBytes[4:8]) != codec.Version {
		t.Fatalf("spooled model does not start with %q + format v%d", codec.Magic[:], codec.Version)
	}
	for _, r := range []*server{r1, r2} {
		got, err := os.ReadFile(filepath.Join(r.puller.Spool, "model-v2.clsi"))
		if err != nil || string(got) != string(wantBytes) {
			t.Fatalf("replica spool diverges from writer snapshot (err=%v, %d vs %d bytes)", err, len(got), len(wantBytes))
		}
	}
}

// waitForNotify waits until the writer's async announcement reached the
// replica (its puller knows the target version).
func waitForNotify(t *testing.T, r *server, version uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.puller.Status().WriterVersion < version {
		if time.Now().After(deadline) {
			t.Fatalf("notify for v%d never arrived (status %+v)", version, r.puller.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaKilledMidSwapRecovers is the chaos case: a replica dies
// mid-swap (the swap callback fails), /stats surfaces the failure and
// the version skew while it lags, and a restarted replica over the same
// spool converges to the writer's version on its next sync.
func TestReplicaKilledMidSwapRecovers(t *testing.T) {
	idx := buildTestIndex(t)
	ws := newLifecycleServer(nil, idx, "")
	spool := t.TempDir()
	ws.enableWriter(spool, nil)
	wts := httptest.NewServer(ws)
	defer wts.Close()
	ws.publishSnapshot(idx.Snapshot())

	replicaSpool := t.TempDir()
	r1, r1ts := newReplicaServer(t, wts.URL, replicaSpool)
	if err := r1.puller.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := statsVersion(t, r1ts); v != 1 {
		t.Fatalf("replica at v%d, want 1", v)
	}

	// The writer moves to v2.
	_, delta := testAssignments()
	if _, err := idx.Apply(context.Background(), cubelsi.Delta{Add: delta}); err != nil {
		t.Fatal(err)
	}
	ws.publishSnapshot(idx.Snapshot())

	// Chaos: the replica is "killed" mid-swap — the swap callback dies
	// after the verified pull, before the new engine is installed.
	origSwap := r1.puller.Swap
	r1.puller.Swap = func(path string, version uint64) error {
		return errors.New("killed mid-swap")
	}
	r1.puller.Notify(replicate.Announcement{Version: 2})
	if err := r1.puller.Sync(context.Background()); err == nil {
		t.Fatal("want mid-swap failure")
	}

	// In between: still serving v1, and /stats shows the skew and the
	// failure — the fleet's lag is observable, not silent.
	var st statsResponse
	getJSON(t, r1ts, "/stats", &st)
	if st.ModelVersion != 1 {
		t.Fatalf("half-swapped replica serves v%d", st.ModelVersion)
	}
	if st.Replication == nil || st.Replication.VersionSkew != 1 ||
		st.Replication.Failures == 0 || st.Replication.LastError == "" {
		t.Fatalf("skew not surfaced: %+v", st.Replication)
	}

	// Restart: a fresh replica server over the same spool (as a new
	// process would be). Its first sync converges straight to v2.
	r1.puller.Swap = origSwap
	r2, r2ts := newReplicaServer(t, wts.URL, replicaSpool)
	if err := r2.puller.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	var rst statsResponse
	getJSON(t, r2ts, "/stats", &rst)
	if rst.ModelVersion != 2 || rst.Replication.VersionSkew != 0 {
		t.Fatalf("restarted replica: %+v", rst.Replication)
	}

	// And the original (un-killed) replica also recovers on its next
	// sync — the failed cycle left nothing poisoned behind.
	if err := r1.puller.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := statsVersion(t, r1ts); v != 2 {
		t.Fatalf("recovered replica at v%d, want 2", v)
	}
}

// TestStreamUnderReadTraffic: streamed flushes hot-swap the model while
// search readers hammer the server — the streaming plane inherits the
// lifecycle's no-torn-reads guarantee.
func TestStreamUnderReadTraffic(t *testing.T) {
	_, ts := newStreamServer(t)
	_, delta := testAssignments()
	hammer(t, ts, func() {
		for round := range 3 {
			body := ndjson(delta, fmt.Sprintf("hammer-%d", round), 1)
			resp, raw := postNDJSON(t, ts, "/stream?flush=1", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("stream round %d: %d %s", round, resp.StatusCode, raw)
				return
			}
		}
	})
}
