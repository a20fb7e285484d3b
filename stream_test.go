package cubelsi

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// newStreamIndex builds an index over the base split of the test corpus
// — the streaming tests replay the tail delta through an Ingestor.
func newStreamIndex(t *testing.T) *Index {
	t.Helper()
	base, _ := splitCorpus()
	idx, err := NewIndex(context.Background(), FromAssignments(base), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// steadyOptions disables every flush trigger, so flushes happen only
// when a test asks for one explicitly.
func steadyOptions() []IngestOption {
	return []IngestOption{
		WithFlushEvery(1 << 20),
		WithFlushInterval(time.Hour),
		WithFlushDrift(-1),
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func addRecords(as []Assignment) []StreamRecord {
	recs := make([]StreamRecord, len(as))
	for i, a := range as {
		recs[i] = StreamRecord{Op: "add", User: a.User, Tag: a.Tag, Resource: a.Resource}
	}
	return recs
}

func mustOffer(t *testing.T, ing *Ingestor, rec StreamRecord, want OfferStatus) {
	t.Helper()
	got, err := ing.Offer(rec)
	if err != nil {
		t.Fatalf("Offer(%+v): %v", rec, err)
	}
	if got != want {
		t.Fatalf("Offer(%+v) = %v, want %v", rec, got, want)
	}
}

// TestIngestorFlushEveryN: the size trigger fires the moment the batch
// holds N distinct changes, with the other triggers out of the picture.
func TestIngestorFlushEveryN(t *testing.T) {
	_, delta := splitCorpus()
	idx := newStreamIndex(t)
	published := make(chan uint64, 16)
	ing, err := NewIngestor(idx,
		WithFlushEvery(len(delta)),
		WithFlushInterval(time.Hour),
		WithFlushDrift(-1),
		WithFlushCallback(func(e *Engine, _ *UpdateReport) { published <- e.Version() }))
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	for _, rec := range addRecords(delta) {
		mustOffer(t, ing, rec, OfferAccepted)
	}
	select {
	case v := <-published:
		if v != 2 {
			t.Fatalf("published version %d, want 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("size trigger never flushed")
	}
	st := ing.Stats()
	if st.Flushes != 1 || st.LastFlushSize != len(delta) || st.Accepted != uint64(len(delta)) {
		t.Fatalf("stats after size flush: %+v", st)
	}
	if st.LastFlushMS <= 0 {
		t.Fatalf("flush-to-visible latency not recorded: %+v", st)
	}
}

// TestIngestorFlushInterval: with size and drift triggers disabled, a
// lone record still becomes visible within the flush interval.
func TestIngestorFlushInterval(t *testing.T) {
	_, delta := splitCorpus()
	idx := newStreamIndex(t)
	ing, err := NewIngestor(idx,
		WithFlushEvery(1<<20),
		WithFlushInterval(30*time.Millisecond),
		WithFlushDrift(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	mustOffer(t, ing, addRecords(delta[:1])[0], OfferAccepted)
	waitFor(t, "interval flush", func() bool { return idx.Snapshot().Version() == 2 })
}

// TestIngestorFlushDrift: a brand-new tag saturates the drift signal
// immediately, so a tiny threshold flushes on the very first record even
// though the size and interval triggers are far away.
func TestIngestorFlushDrift(t *testing.T) {
	idx := newStreamIndex(t)
	ing, err := NewIngestor(idx,
		WithFlushEvery(1<<20),
		WithFlushInterval(time.Hour),
		WithFlushDrift(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	mustOffer(t, ing, StreamRecord{User: "drifter", Tag: "neverseenbefore", Resource: "rX"}, OfferAccepted)
	waitFor(t, "drift flush", func() bool { return idx.Snapshot().Version() == 2 })
	// The drift signal resets against the new model after the flush.
	waitFor(t, "drift reset", func() bool { return ing.Stats().Drift == 0 })
}

// TestIngestorBackpressure: offers beyond the queue capacity report
// backpressure (not an error), the RetryAfter hint is sane, and the
// queue accepts again after a flush drains it.
func TestIngestorBackpressure(t *testing.T) {
	_, delta := splitCorpus()
	idx := newStreamIndex(t)
	ing, err := NewIngestor(idx, append(steadyOptions(), WithQueueCapacity(2))...)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	recs := addRecords(delta)
	mustOffer(t, ing, recs[0], OfferAccepted)
	mustOffer(t, ing, recs[1], OfferAccepted)
	mustOffer(t, ing, recs[2], OfferBackpressure)
	// A change to an already-pending triple compacts in place: no new
	// queue slot, so it is accepted even at capacity.
	mustOffer(t, ing, recs[0], OfferAccepted)

	st := ing.Stats()
	if st.Backpressured != 1 || st.QueueDepth != 2 || st.QueueCapacity != 2 {
		t.Fatalf("stats under backpressure: %+v", st)
	}
	if ing.RetryAfter() < 100*time.Millisecond {
		t.Fatalf("RetryAfter %v below floor", ing.RetryAfter())
	}

	if _, err := ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustOffer(t, ing, recs[2], OfferAccepted)
}

// TestIngestorIdempotentRedelivery: a (client, seq) pair is applied
// once; redeliveries — immediate or after a flush — acknowledge as
// duplicates, while records without an identity are never deduplicated.
func TestIngestorIdempotentRedelivery(t *testing.T) {
	_, delta := splitCorpus()
	idx := newStreamIndex(t)
	ing, err := NewIngestor(idx, steadyOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	rec := addRecords(delta[:1])[0]
	rec.Client, rec.Seq = "producer-a", 1
	mustOffer(t, ing, rec, OfferAccepted)
	mustOffer(t, ing, rec, OfferDuplicate)

	// The window survives the flush: redelivery of an already-applied
	// record after publication is still a duplicate.
	if _, err := ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustOffer(t, ing, rec, OfferDuplicate)

	// The next sequence number is fresh, and another client's seq 1 is
	// independent of producer-a's.
	rec2 := addRecords(delta[1:2])[0]
	rec2.Client, rec2.Seq = "producer-a", 2
	mustOffer(t, ing, rec2, OfferAccepted)
	rec3 := addRecords(delta[2:3])[0]
	rec3.Client, rec3.Seq = "producer-b", 1
	mustOffer(t, ing, rec3, OfferAccepted)

	// Identity-free records opt out: the same triple offered twice is
	// accepted twice (the second compacts in place).
	anon := addRecords(delta[3:4])[0]
	mustOffer(t, ing, anon, OfferAccepted)
	mustOffer(t, ing, anon, OfferAccepted)

	if st := ing.Stats(); st.Duplicates != 2 {
		t.Fatalf("duplicate count %d, want 2 (stats %+v)", st.Duplicates, st)
	}
}

// TestIngestorIdempotencyWindowSlides: sequence numbers behind the
// sliding window read as duplicates (long-applied), in-window unseen
// ones are accepted.
func TestIngestorIdempotencyWindowSlides(t *testing.T) {
	_, delta := splitCorpus()
	idx := newStreamIndex(t)
	ing, err := NewIngestor(idx, append(steadyOptions(), WithIdempotencyWindow(2), WithQueueCapacity(16))...)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	recs := addRecords(delta)
	r := recs[0]
	r.Client, r.Seq = "c", 10
	mustOffer(t, ing, r, OfferAccepted)

	// seq 8 = max − window: fell off the back, treated as applied.
	old := recs[1]
	old.Client, old.Seq = "c", 8
	mustOffer(t, ing, old, OfferDuplicate)

	// seq 9 is inside the window and unseen: accepted.
	in := recs[2]
	in.Client, in.Seq = "c", 9
	mustOffer(t, ing, in, OfferAccepted)
}

// TestIngestorCompactionPreservesStreamOrder: within one micro-batch
// the later op on a triple wins, so add-then-remove and remove-then-add
// both net to the stream's final state even though Index.Apply
// processes removals before additions.
func TestIngestorCompactionPreservesStreamOrder(t *testing.T) {
	idx := newStreamIndex(t)
	ing, err := NewIngestor(idx, steadyOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	fresh := StreamRecord{User: "u-order", Tag: "ordertag", Resource: "r-order"}
	before := idx.Snapshot().Version()

	// add(x) then remove(x): nets to x absent — the flush is a no-op.
	mustOffer(t, ing, fresh, OfferAccepted)
	rm := fresh
	rm.Op = "remove"
	mustOffer(t, ing, rm, OfferAccepted)
	if _, err := ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := idx.Snapshot().Version(); got != before {
		t.Fatalf("add+remove batch published version %d, want unchanged %d", got, before)
	}

	// remove(x) then add(x) on a live triple: nets to x present, no-op.
	_, delta := splitCorpus()
	live := StreamRecord{Op: "remove", User: delta[0].User, Tag: delta[0].Tag, Resource: delta[0].Resource}
	// (delta[0] is not live on the base index; add it for real first.)
	add := live
	add.Op = "add"
	mustOffer(t, ing, add, OfferAccepted)
	rep, err := ing.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after := idx.Snapshot().Version()
	if rep == nil || rep.AddedAssignments != 1 || rep.Version != after {
		t.Fatalf("flush report = %+v, want one added assignment at v%d", rep, after)
	}
	if rep, err := ing.Flush(context.Background()); err != nil || rep != nil {
		t.Fatalf("flush with nothing pending = (%+v, %v), want (nil, nil)", rep, err)
	}
	mustOffer(t, ing, live, OfferAccepted)
	mustOffer(t, ing, add, OfferAccepted)
	if _, err := ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := idx.Snapshot().Version(); got != after {
		t.Fatalf("remove+add batch published version %d, want unchanged %d", got, after)
	}
}

// TestIngestorRejectsInvalidRecords: unknown ops and empty assignment
// fields error immediately, before touching the queue.
func TestIngestorRejectsInvalidRecords(t *testing.T) {
	idx := newStreamIndex(t)
	ing, err := NewIngestor(idx, steadyOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	for _, rec := range []StreamRecord{
		{Op: "replace", User: "u", Tag: "t", Resource: "r"},
		{User: "", Tag: "t", Resource: "r"},
		{User: "u", Tag: "", Resource: "r"},
		{User: "u", Tag: "t", Resource: ""},
	} {
		if _, err := ing.Offer(rec); err == nil {
			t.Fatalf("Offer(%+v) accepted an invalid record", rec)
		}
	}
	if st := ing.Stats(); st.Accepted != 0 || st.QueueDepth != 0 {
		t.Fatalf("invalid records touched the queue: %+v", st)
	}
}

// TestIngestorOptionValidation: malformed policy options fail
// NewIngestor with ErrInvalidOptions, mirroring the build options.
func TestIngestorOptionValidation(t *testing.T) {
	idx := newStreamIndex(t)
	for _, opt := range []IngestOption{
		WithFlushEvery(-1),
		WithFlushInterval(-time.Second),
		WithQueueCapacity(-4),
		WithIdempotencyWindow(-1),
	} {
		if _, err := NewIngestor(idx, opt); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("err = %v, want ErrInvalidOptions", err)
		}
	}
}

// TestIngestorFailedFlushDropsBatch: a batch the corpus rejects
// (removing every assignment fails cleaning) is dropped with the error
// recorded, and the index is left exactly as it was.
func TestIngestorFailedFlushDropsBatch(t *testing.T) {
	idx, err := NewIndex(context.Background(), FromAssignments(corpus()), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngestor(idx, steadyOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	before := idx.Snapshot()

	seen := make(map[Assignment]bool)
	queued := 0
	for _, a := range corpus() {
		folded := idx.log.fold(a)
		if seen[folded] {
			continue
		}
		seen[folded] = true
		mustOffer(t, ing, StreamRecord{Op: "remove", User: a.User, Tag: a.Tag, Resource: a.Resource}, OfferAccepted)
		queued++
	}
	if _, err := ing.Flush(context.Background()); err == nil {
		t.Fatal("flushing a corpus-emptying batch must fail")
	}
	if idx.Snapshot() != before {
		t.Fatal("failed flush swapped the snapshot")
	}
	st := ing.Stats()
	if st.FlushErrors != 1 || st.Dropped != uint64(queued) || st.LastError == "" || st.QueueDepth != 0 {
		t.Fatalf("stats after failed flush: %+v (queued %d)", st, queued)
	}

	// The ingestor stays usable: a valid batch afterwards applies.
	mustOffer(t, ing, StreamRecord{User: "u-after", Tag: "aftertag", Resource: "r-after"}, OfferAccepted)
	if _, err := ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := ing.Stats(); st.Flushes != 1 || st.LastError != "" {
		t.Fatalf("stats after recovery flush: %+v", st)
	}
}

// TestIngestorCloseFlushesTail: Close applies what is pending, later
// offers fail, and Close is idempotent.
func TestIngestorCloseFlushesTail(t *testing.T) {
	_, delta := splitCorpus()
	idx := newStreamIndex(t)
	ing, err := NewIngestor(idx, steadyOptions()...)
	if err != nil {
		t.Fatal(err)
	}

	mustOffer(t, ing, addRecords(delta[:1])[0], OfferAccepted)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if got := idx.Snapshot().Version(); got != 2 {
		t.Fatalf("version after Close %d, want 2 (tail not flushed)", got)
	}
	if _, err := ing.Offer(addRecords(delta[1:2])[0]); err == nil {
		t.Fatal("Offer after Close must fail")
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestIngestorConcurrentProducers: many producers firehose the same
// ingestor while the flusher runs on a short interval — under -race
// this is the streaming plane's torn-state check. Every distinct triple
// must be live at the end regardless of interleaving.
func TestIngestorConcurrentProducers(t *testing.T) {
	_, delta := splitCorpus()
	idx := newStreamIndex(t)
	ing, err := NewIngestor(idx,
		WithFlushEvery(4),
		WithFlushInterval(20*time.Millisecond),
		WithFlushDrift(-1),
		WithQueueCapacity(1024))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := range 4 {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i, rec := range addRecords(delta) {
				rec.Client, rec.Seq = "p", uint64(i+1) // all producers share a stream: 3 of 4 deliveries deduplicate
				for {
					st, err := ing.Offer(rec)
					if err != nil {
						t.Error(err)
						return
					}
					if st != OfferBackpressure {
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(p)
	}
	wg.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	support := idx.TagSupport()
	for _, a := range delta {
		folded := idx.log.fold(a)
		if support[folded.Tag] == 0 {
			t.Fatalf("tag %q lost in concurrent ingestion", folded.Tag)
		}
	}
	st := ing.Stats()
	if st.Accepted+st.Duplicates != uint64(4*len(delta)) {
		t.Fatalf("accounting off: accepted %d + duplicates %d != %d offered (stats %+v)",
			st.Accepted, st.Duplicates, 4*len(delta), st)
	}
}

// TestIndexTagSupport: live per-tag assignment counts under the
// engine's tag case-folding.
func TestIndexTagSupport(t *testing.T) {
	idx, err := NewIndex(context.Background(), FromAssignments(corpus()), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	seen := make(map[Assignment]bool)
	for _, a := range corpus() {
		folded := idx.log.fold(a)
		if !seen[folded] {
			seen[folded] = true
			want[folded.Tag]++
		}
	}
	got := idx.TagSupport()
	if len(got) != len(want) {
		t.Fatalf("TagSupport has %d tags, want %d", len(got), len(want))
	}
	for tag, n := range want {
		if got[tag] != n {
			t.Fatalf("TagSupport[%q] = %d, want %d", tag, got[tag], n)
		}
	}
}
