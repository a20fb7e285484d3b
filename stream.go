package cubelsi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// StreamRecord is one delta-log entry of the streaming ingestion plane:
// a single assignment change, optionally tagged with a client identity
// and a client-assigned sequence number for idempotent redelivery. It
// is the NDJSON line format POST /stream accepts.
type StreamRecord struct {
	// Op is "add" (the default when empty) or "remove".
	Op string `json:"op,omitempty"`
	// User, Tag, Resource name the assignment triple. All three are
	// required.
	User     string `json:"user"`
	Tag      string `json:"tag"`
	Resource string `json:"resource"`
	// Client and Seq form the idempotency key: a record redelivered with
	// the same (client, seq) inside the idempotency window is
	// acknowledged as a duplicate instead of being applied twice. Seq 0
	// (or an empty Client) opts out of idempotency tracking.
	Client string `json:"client,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

// OfferStatus classifies what happened to one offered stream record.
type OfferStatus int

const (
	// OfferAccepted: the record entered the pending micro-batch and will
	// be folded into the index on the next flush.
	OfferAccepted OfferStatus = iota
	// OfferDuplicate: the (client, seq) pair was already seen inside the
	// idempotency window; the record was dropped as already applied.
	OfferDuplicate
	// OfferBackpressure: the pending queue is at capacity. The caller
	// should retry after RetryAfter (an HTTP front end answers 429 with
	// a Retry-After header).
	OfferBackpressure
)

// String names the status for logs and acks.
func (s OfferStatus) String() string {
	switch s {
	case OfferAccepted:
		return "accepted"
	case OfferDuplicate:
		return "duplicate"
	case OfferBackpressure:
		return "backpressure"
	default:
		return fmt.Sprintf("OfferStatus(%d)", int(s))
	}
}

// IngestStats is a point-in-time snapshot of the streaming ingestion
// plane, served under "stream" in /stats.
type IngestStats struct {
	// Accepted, Duplicates and Backpressured count offered records by
	// outcome since the ingestor started.
	Accepted      uint64 `json:"accepted"`
	Duplicates    uint64 `json:"duplicates"`
	Backpressured uint64 `json:"backpressured"`
	// QueueDepth is the number of distinct assignment changes currently
	// pending; QueueCapacity the backpressure bound.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Drift is the current value of the embedding-drift flush signal.
	Drift float64 `json:"drift"`
	// Flushes counts successful micro-batch applies; FlushErrors the
	// failed ones (their records are dropped — see Ingestor). Dropped is
	// the total records lost to failed flushes.
	Flushes     uint64 `json:"flushes"`
	FlushErrors uint64 `json:"flush_errors"`
	Dropped     uint64 `json:"dropped"`
	// LastFlushMS is the wall clock of the last successful flush — the
	// flush-to-visible latency of the records it carried —
	// LastFlushSize its assignment count, and LastError the most recent
	// flush failure ("" when the last flush succeeded).
	LastFlushMS   float64 `json:"last_flush_ms"`
	LastFlushSize int     `json:"last_flush_size"`
	LastError     string  `json:"last_error,omitempty"`
}

// IngestOption configures NewIngestor.
type IngestOption func(*ingestSettings)

type ingestSettings struct {
	flushEvery int
	interval   time.Duration
	drift      float64
	capacity   int
	window     int
	onFlush    func(*Engine, *UpdateReport)
	err        error
}

func (s *ingestSettings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithFlushEvery flushes the pending micro-batch once it holds n
// distinct assignment changes. Zero keeps the default (256); negative
// values are rejected with ErrInvalidOptions.
func WithFlushEvery(n int) IngestOption {
	return func(s *ingestSettings) {
		if n < 0 {
			s.fail(fmt.Errorf("%w: WithFlushEvery(%d): count must be non-negative", ErrInvalidOptions, n))
			return
		}
		s.flushEvery = n
	}
}

// WithFlushInterval flushes the pending micro-batch at least every d,
// whether or not the size or drift triggers fired. Zero keeps the
// default (2s); negative durations are rejected with ErrInvalidOptions.
func WithFlushInterval(d time.Duration) IngestOption {
	return func(s *ingestSettings) {
		if d < 0 {
			s.fail(fmt.Errorf("%w: WithFlushInterval(%v): interval must be non-negative", ErrInvalidOptions, d))
			return
		}
		s.interval = d
	}
}

// WithFlushDrift flushes once the embedding-drift estimate of the
// pending changes (see core.DriftSignal: the expected fraction of the
// vocabulary perturbed past the re-cluster threshold) reaches t. Zero
// keeps the default (0.05); negative disables the drift trigger
// entirely.
func WithFlushDrift(t float64) IngestOption {
	return func(s *ingestSettings) { s.drift = t }
}

// WithQueueCapacity bounds the pending queue: offers past the bound
// come back OfferBackpressure instead of growing memory without limit.
// Zero keeps the default (4096); values below 1 are rejected with
// ErrInvalidOptions.
func WithQueueCapacity(n int) IngestOption {
	return func(s *ingestSettings) {
		if n < 0 {
			s.fail(fmt.Errorf("%w: WithQueueCapacity(%d): capacity must be non-negative", ErrInvalidOptions, n))
			return
		}
		s.capacity = n
	}
}

// WithIdempotencyWindow sets how many client sequence numbers back a
// redelivered record is still recognized as a duplicate, per client.
// Zero keeps the default (1024); negative values are rejected with
// ErrInvalidOptions.
func WithIdempotencyWindow(n int) IngestOption {
	return func(s *ingestSettings) {
		if n < 0 {
			s.fail(fmt.Errorf("%w: WithIdempotencyWindow(%d): window must be non-negative", ErrInvalidOptions, n))
			return
		}
		s.window = n
	}
}

// WithFlushCallback registers a hook called after every successful
// flush with the freshly published snapshot and its update report —
// the seam the serving layer uses to spool and announce new model
// versions to replicas. The callback runs on the flush goroutine and
// must not call back into the ingestor.
func WithFlushCallback(fn func(*Engine, *UpdateReport)) IngestOption {
	return func(s *ingestSettings) { s.onFlush = fn }
}

// Ingestor is the streaming front end of an Index: it accepts a
// firehose of single-assignment changes (Offer), micro-batches them,
// and folds each batch into the index with one warm-started
// Index.Apply. A batch flushes when the first of three triggers fires —
// it holds WithFlushEvery changes, WithFlushInterval elapsed since the
// previous flush, or the embedding-drift estimate of the pending
// changes reached WithFlushDrift — so a quiet stream coalesces into
// rare cheap rebuilds while a heavy or drifty one publishes promptly.
//
// Offer is safe for any number of concurrent producers and never
// blocks on a rebuild: records are queued (bounded by
// WithQueueCapacity — beyond it Offer reports backpressure) and one
// background goroutine runs the Apply. Records carrying a (client,
// seq) identity are deduplicated against a per-client sliding window,
// so an at-least-once producer can redeliver after a timeout without
// double-applying.
//
// Within one micro-batch the stream order is preserved by compaction:
// offering add(x) then remove(x) nets to x absent, regardless of how
// Index.Apply orders its add/remove sides. A flush whose Apply fails
// (the corpus rejected the batch — e.g. it removed the last
// assignment) drops that batch and records the error in Stats; the
// idempotency window still remembers the records, so ingestion is
// at-most-once on corpus rejection and exactly-once otherwise.
//
// Close flushes what is pending and stops the background goroutine.
type Ingestor struct {
	idx      *Index
	settings ingestSettings

	mu      sync.Mutex
	pending []StreamRecord        // distinct pending changes, arrival order
	slot    map[Assignment]int    // folded triple -> index into pending
	clients map[string]*seqWindow // per-client idempotency windows
	drift   *core.DriftSignal
	stats   IngestStats
	lastMS  float64 // EWMA of flush wall clock, for RetryAfter
	closed  bool

	kick    chan struct{}         // size/drift trigger -> flusher
	flushRq chan chan flushResult // synchronous Flush requests
	stop    chan struct{}
	done    chan struct{}
}

// flushResult is what one flush hands back to a synchronous Flush.
type flushResult struct {
	rep *UpdateReport
	err error
}

// seqWindow tracks recently seen sequence numbers of one client. A seq
// is a duplicate when it is still in the window set, or so old it fell
// off the back of the window (redeliveries arrive close to the
// original; anything that far behind has long been applied).
type seqWindow struct {
	max  uint64
	seen map[uint64]struct{}
	w    int
}

func (sw *seqWindow) duplicate(seq uint64) bool {
	if _, ok := sw.seen[seq]; ok {
		return true
	}
	return sw.max >= uint64(sw.w) && seq <= sw.max-uint64(sw.w)
}

func (sw *seqWindow) record(seq uint64) {
	sw.seen[seq] = struct{}{}
	if seq > sw.max {
		sw.max = seq
	}
	// Evict lazily: only when the set outgrows twice the window, scan
	// once — amortized O(1) per record.
	if len(sw.seen) > 2*sw.w {
		for s := range sw.seen {
			if sw.max >= uint64(sw.w) && s <= sw.max-uint64(sw.w) {
				delete(sw.seen, s)
			}
		}
	}
}

// NewIngestor attaches a streaming micro-batcher to the index. The
// returned ingestor owns a background flush goroutine; call Close to
// flush the tail of the stream and release it.
func NewIngestor(idx *Index, opts ...IngestOption) (*Ingestor, error) {
	settings := ingestSettings{
		flushEvery: 256,
		interval:   2 * time.Second,
		drift:      0.05,
		capacity:   4096,
		window:     1024,
	}
	for _, o := range opts {
		o(&settings)
	}
	if settings.err != nil {
		return nil, settings.err
	}
	if settings.flushEvery == 0 {
		settings.flushEvery = 256
	}
	if settings.interval == 0 {
		settings.interval = 2 * time.Second
	}
	if settings.capacity == 0 {
		settings.capacity = 4096
	}
	if settings.window == 0 {
		settings.window = 1024
	}
	ing := &Ingestor{
		idx:      idx,
		settings: settings,
		slot:     make(map[Assignment]int),
		clients:  make(map[string]*seqWindow),
		kick:     make(chan struct{}, 1),
		flushRq:  make(chan chan flushResult),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	ing.stats.QueueCapacity = settings.capacity
	ing.resetDriftLocked()
	go ing.run()
	return ing, nil
}

// resetDriftLocked rebuilds the drift signal against the index's
// current corpus (per-tag live-assignment support and the served
// vocabulary size). Called under ing.mu after each flush; the O(|Y|)
// support scan is noise next to the Apply that preceded it.
func (ing *Ingestor) resetDriftLocked() {
	support := ing.idx.TagSupport()
	vocab := ing.idx.Snapshot().Stats().Tags
	lookup := func(tag string) int { return support[tag] }
	if ing.drift == nil {
		ing.drift = core.NewDriftSignal(vocab, lookup)
		return
	}
	ing.drift.Reset(vocab, lookup)
}

// Offer submits one stream record. It validates the record, applies
// the idempotency window, and queues the change; it never waits for a
// rebuild. The error is non-nil only for invalid records (unknown op,
// empty assignment field) — queue pressure is reported through the
// status, not the error.
func (ing *Ingestor) Offer(rec StreamRecord) (OfferStatus, error) {
	switch rec.Op {
	case "", "add", "remove":
	default:
		return 0, fmt.Errorf("cubelsi: stream record op %q (want add or remove)", rec.Op)
	}
	if rec.User == "" || rec.Tag == "" || rec.Resource == "" {
		return 0, fmt.Errorf("cubelsi: stream record with empty assignment field: %+v", rec)
	}

	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.closed {
		return 0, errors.New("cubelsi: ingestor is closed")
	}

	// Idempotency before capacity: a duplicate redelivered while the
	// queue is full must still be acknowledged as applied, or the
	// producer retries it forever. The sequence number is only recorded
	// once the record is actually accepted — a backpressured record was
	// not applied, and its retry must not read as a duplicate.
	var sw *seqWindow
	if rec.Client != "" && rec.Seq != 0 {
		sw = ing.clients[rec.Client]
		if sw == nil {
			sw = &seqWindow{seen: make(map[uint64]struct{}), w: ing.settings.window}
			ing.clients[rec.Client] = sw
		}
		if sw.duplicate(rec.Seq) {
			ing.stats.Duplicates++
			return OfferDuplicate, nil
		}
	}

	triple := ing.idx.log.fold(Assignment{User: rec.User, Tag: rec.Tag, Resource: rec.Resource})
	if i, ok := ing.slot[triple]; ok {
		// Same triple already pending: the later op wins, preserving
		// stream order without growing the queue.
		ing.pending[i].Op = rec.Op
		ing.stats.Accepted++
		if sw != nil {
			sw.record(rec.Seq)
		}
		return OfferAccepted, nil
	}
	if len(ing.pending) >= ing.settings.capacity {
		ing.stats.Backpressured++
		return OfferBackpressure, nil
	}
	if sw != nil {
		sw.record(rec.Seq)
	}
	ing.slot[triple] = len(ing.pending)
	rec.User, rec.Tag, rec.Resource = triple.User, triple.Tag, triple.Resource
	ing.pending = append(ing.pending, rec)
	ing.stats.Accepted++
	ing.stats.QueueDepth = len(ing.pending)
	ing.stats.Drift = ing.drift.Observe(triple.Tag)

	if len(ing.pending) >= ing.settings.flushEvery ||
		(ing.settings.drift >= 0 && ing.stats.Drift >= ing.effectiveDrift()) {
		select {
		case ing.kick <- struct{}{}:
		default:
		}
	}
	return OfferAccepted, nil
}

// effectiveDrift resolves the configured drift threshold (0 = default).
func (ing *Ingestor) effectiveDrift() float64 {
	if ing.settings.drift == 0 {
		return 0.05
	}
	return ing.settings.drift
}

// Flush synchronously applies everything pending — every producer's
// records, not only the caller's — and returns the Apply's report and
// error. A flush with nothing pending is a no-op that returns a nil
// report.
func (ing *Ingestor) Flush(ctx context.Context) (*UpdateReport, error) {
	reply := make(chan flushResult, 1)
	select {
	case ing.flushRq <- reply:
		select {
		case res := <-reply:
			return res.rep, res.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	case <-ing.done:
		return nil, errors.New("cubelsi: ingestor is closed")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats returns a snapshot of the ingestion counters.
func (ing *Ingestor) Stats() IngestStats {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	st := ing.stats
	st.QueueDepth = len(ing.pending)
	st.Drift = ing.drift.Value()
	return st
}

// RetryAfter suggests how long a backpressured producer should wait
// before retrying: the observed flush wall clock (EWMA), floored at
// 100ms — by then the queue has very likely drained once.
func (ing *Ingestor) RetryAfter() time.Duration {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	d := time.Duration(ing.lastMS * float64(time.Millisecond))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// Close flushes the pending tail and stops the background goroutine.
// Offers after Close fail; Close is idempotent.
func (ing *Ingestor) Close() error {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		<-ing.done
		return nil
	}
	ing.closed = true
	ing.mu.Unlock()
	close(ing.stop)
	<-ing.done
	_, err := ing.flush(context.Background())
	return err
}

// run is the background flusher: one goroutine owns every Index.Apply
// the stream triggers, so rebuilds never pile up — while one runs, the
// queue absorbs (or backpressures) the firehose.
func (ing *Ingestor) run() {
	defer close(ing.done)
	ticker := time.NewTicker(ing.settings.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ing.kick:
			_, _ = ing.flush(context.Background())
		case <-ticker.C:
			_, _ = ing.flush(context.Background())
		case reply := <-ing.flushRq:
			rep, err := ing.flush(context.Background())
			reply <- flushResult{rep, err}
		case <-ing.stop:
			return
		}
	}
}

// flush steals the pending batch, compacts it into a Delta, and
// applies it. On failure the batch is dropped and the error recorded —
// the log was rolled back by Apply, so the index is unharmed.
func (ing *Ingestor) flush(ctx context.Context) (*UpdateReport, error) {
	ing.mu.Lock()
	batch := ing.pending
	ing.pending = nil
	ing.slot = make(map[Assignment]int)
	ing.stats.QueueDepth = 0
	ing.mu.Unlock()
	if len(batch) == 0 {
		return nil, nil
	}

	var d Delta
	for _, rec := range batch {
		a := Assignment{User: rec.User, Tag: rec.Tag, Resource: rec.Resource}
		if rec.Op == "remove" {
			d.Remove = append(d.Remove, a)
		} else {
			d.Add = append(d.Add, a)
		}
	}
	start := time.Now()
	rep, err := ing.idx.Apply(ctx, d)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6

	ing.mu.Lock()
	if err != nil {
		ing.stats.FlushErrors++
		ing.stats.Dropped += uint64(len(batch))
		ing.stats.LastError = err.Error()
		ing.mu.Unlock()
		return nil, err
	}
	ing.stats.Flushes++
	ing.stats.LastFlushMS = ms
	ing.stats.LastFlushSize = len(batch)
	ing.stats.LastError = ""
	if ing.lastMS == 0 {
		ing.lastMS = ms
	} else {
		ing.lastMS = 0.7*ing.lastMS + 0.3*ms
	}
	ing.resetDriftLocked()
	ing.mu.Unlock()

	if ing.settings.onFlush != nil {
		ing.settings.onFlush(ing.idx.Snapshot(), rep)
	}
	return rep, nil
}
