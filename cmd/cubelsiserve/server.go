package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/httpx"
	"repro/internal/replicate"
)

// logBatchPanics writes the recovery stack of every BatchError inside a
// SearchBatch error to stderr — the diagnostic detail that must reach
// the operator but not the HTTP client.
func logBatchPanics(err error) {
	errs := []error{err}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		errs = joined.Unwrap()
	}
	for _, e := range errs {
		var be *cubelsi.BatchError
		if errors.As(e, &be) {
			fmt.Fprintf(os.Stderr, "cubelsiserve: %v\n%s", be, be.Stack)
		}
	}
}

// maxSearchBody bounds JSON POST request bodies (search, reload,
// notify). Oversized bodies are rejected with 413 instead of being read
// to completion.
const maxSearchBody = 1 << 20 // 1 MiB

// server wraps the engine lifecycle with the HTTP API. The current
// engine is always an immutable snapshot: request handlers load it once
// and serve the whole request from it, so /stream flushes and /reload
// can swap in a new model while /search traffic is in flight — no locks
// on the read path, no torn state.
//
// Exactly one of two write paths is available per process: corpus-backed
// servers (built with -data) own a cubelsi.Index — the index's own
// atomic snapshot is the single source of truth, and POST /stream feeds
// its Ingestor, whose single flush goroutine runs every Index.Apply.
// Model-backed servers (started with -model) hold the engine behind the
// server's own atomic pointer and accept POST /reload to hot-swap a
// model file; the mutex serializes reloads only.
type server struct {
	started time.Time
	mux     *httpx.Mux
	idx     *cubelsi.Index // non-nil when corpus-backed (-data)

	mu        sync.Mutex // serializes /reload
	modelPath string     // non-empty when model-backed (-model)
	eng       atomic.Pointer[cubelsi.Engine]

	// Serving options re-applied on every model load (initial and each
	// /reload). Set once before the first load; model-backed only.
	mmap      bool // load through a memory mapping (cubelsi.WithMapped)
	ann       bool // serve /related through the IVF index (Engine.WithANN)
	annProbe  int  // inverted lists probed per query (0 = √lists)
	annRerank int  // candidate depth before exact rerank (0 = result size)

	// Retrieval pipeline for /search (Engine.WithRetrieval), re-applied on
	// every load like the ANN options. Empty retrieveSrc with zero
	// retrieveDepth keeps the engine's default: the exact source over the
	// whole corpus.
	retrieveSrc   string // candidate source ("exact" or "concept")
	retrieveDepth int    // candidate depth C (0 = whole corpus)

	// Streaming ingestion plane (corpus-backed servers): POST /stream
	// micro-batches assignment deltas through the ingestor.
	ing *cubelsi.Ingestor

	// Replication plane. A writer (enableWriter) spools and announces
	// snapshots; a replica (enableReplica) pulls and verifies them.
	pubMu       sync.Mutex // serializes publishSnapshot
	spool       string
	pub         *replicate.Publisher
	notifier    *replicate.Notifier
	puller      *replicate.Puller
	replicaOf   string
	replicaPoll time.Duration
}

// newServer builds the HTTP handler for a fixed engine snapshot with no
// write path (tests, and the minimal embedded use).
func newServer(eng *cubelsi.Engine) *server { return newLifecycleServer(eng, nil, "") }

// newLifecycleServer builds the HTTP handler: idx makes the server
// corpus-backed (POST /stream once enableStreaming attaches an
// ingestor), modelPath enables POST /reload. A nil engine (with idx
// nil) starts not-ready: /readyz and every query endpoint return 503
// until an engine is set.
func newLifecycleServer(eng *cubelsi.Engine, idx *cubelsi.Index, modelPath string) *server {
	s := &server{started: time.Now(), mux: httpx.NewMux(), idx: idx, modelPath: modelPath}
	if eng != nil {
		s.eng.Store(eng)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /search", s.handleSearchGet)
	s.mux.HandleFunc("POST /search", s.handleSearchPost)
	s.mux.HandleFunc("GET /related", s.handleRelated)
	s.mux.HandleFunc("GET /clusters", s.handleClusters)
	s.mux.HandleFunc("POST /reload", s.handleReload)
	s.mux.HandleFunc("POST /stream", s.handleStream)
	return s
}

// enableStreaming attaches the streaming ingestor to a corpus-backed
// server. When the server is also the fleet's writer, every flush
// publishes its snapshot to the replicas.
func (s *server) enableStreaming(opts ...cubelsi.IngestOption) error {
	if s.idx == nil {
		return errors.New("streaming requires a corpus-backed server (-data)")
	}
	opts = append(opts, cubelsi.WithFlushCallback(func(eng *cubelsi.Engine, _ *cubelsi.UpdateReport) {
		if s.pub != nil {
			s.publishSnapshot(eng)
		}
	}))
	ing, err := cubelsi.NewIngestor(s.idx, opts...)
	if err != nil {
		return err
	}
	s.ing = ing
	return nil
}

// loadModel loads a model file with the server's serving options: the
// memory-mapped load path when -mmap is set, wrapped in an IVF ANN
// index when -ann is. Used for the startup load and every /reload, so
// a hot-swapped model keeps the serving configuration it was started
// with.
func (s *server) loadModel(path string) (*cubelsi.Engine, error) {
	var opts []cubelsi.LoadOption
	if s.mmap {
		opts = append(opts, cubelsi.WithMapped())
	}
	eng, err := cubelsi.LoadFile(path, opts...)
	if err != nil {
		return nil, err
	}
	if s.ann {
		annEng, err := eng.WithANN(s.annProbe, s.annRerank)
		if err != nil {
			eng.Close()
			return nil, err
		}
		eng = annEng
	}
	if s.retrieveSrc != "" || s.retrieveDepth > 0 {
		retrEng, err := eng.WithRetrieval(s.retrieveSrc, s.retrieveDepth)
		if err != nil {
			eng.Close()
			return nil, err
		}
		eng = retrEng
	}
	return eng, nil
}

// engine returns the current snapshot, or nil before the first model is
// ready. Corpus-backed servers read straight from the index, so there
// is exactly one place the "current model" lives per backing mode.
func (s *server) engine() *cubelsi.Engine {
	if s.idx != nil {
		return s.idx.Snapshot()
	}
	return s.eng.Load()
}

// notReady writes the 503 envelope and reports whether the caller must
// bail.
func (s *server) notReady(w http.ResponseWriter) bool {
	if s.engine() != nil {
		return false
	}
	writeError(w, http.StatusServiceUnavailable, "model not ready")
	return true
}

// ServeHTTP dispatches through the shared httpx mux, which keeps the
// error envelope consistent: unmatched requests come back as JSON 404s,
// or JSON 405s with an Allow header when the path exists under another
// method — the same shape every handler here writes.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// extendDeadline lifts the server-wide read/write deadlines for one
// long-running request (stream/reload). Errors are ignored: recorders
// and exotic ResponseWriters don't support deadlines, and the fallback
// is simply the original timeout behavior.
func extendDeadline(w http.ResponseWriter) {
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	httpx.WriteJSON(w, status, v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	httpx.WriteError(w, status, format, args...)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe, distinct from liveness: the
// process can be healthy (accepting connections, able to report stats)
// while no model is loaded yet — routers should not send it traffic.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ready",
		"version": s.engine().Version(),
	})
}

type statsResponse struct {
	Users       int    `json:"users"`
	Tags        int    `json:"tags"`
	Resources   int    `json:"resources"`
	Assignments int    `json:"assignments"`
	CoreDims    [3]int `json:"core_dims"`
	Concepts    int    `json:"concepts"`
	// EmbeddingDim is k₂ of the Theorem 2 tag embedding the model serves
	// distances from; 0 marks a legacy matrix-backed model.
	EmbeddingDim int `json:"embedding_dim"`
	// EmbeddingBytes is the in-memory size of the tag-semantics
	// structure: 8·|T|·k₂ for embedding-backed models (vs 8·|T|² a dense
	// matrix would cost).
	EmbeddingBytes int64   `json:"embedding_bytes"`
	Fit            float64 `json:"fit"`
	// ModelVersion is the lifecycle counter of the serving snapshot; it
	// increases with every applied update. SourceFingerprint identifies
	// the cleaned corpus the snapshot was built from ("" when unknown).
	ModelVersion      uint64  `json:"model_version"`
	SourceFingerprint string  `json:"source_fingerprint,omitempty"`
	UptimeSec         float64 `json:"uptime_seconds"`
	// AnnEnabled reports whether /related serves through the IVF index;
	// Nprobe is the effective lists-probed default (0 when ANN is off,
	// overridable per request with /related?nprobe=). Quantization names
	// the quantized embedding view the model carries ("int8", "float16"
	// or "none"); ModelMapped whether the model file is memory-mapped
	// rather than heap-decoded.
	AnnEnabled   bool   `json:"ann_enabled"`
	Nprobe       int    `json:"nprobe"`
	Quantization string `json:"quantization"`
	ModelMapped  bool   `json:"model_mapped"`
	// RetrievalSource names the candidate source /search was configured
	// with ("" = none configured: the default exact source); RerankDepth
	// is the configured candidate depth C (0 = whole corpus,
	// /search?rerank= overrides per request). UserFactors reports whether
	// the model carries the compacted Y⁽¹⁾ section, i.e. whether
	// /search?user= personalizes or silently serves the shared ranking;
	// PersonalizableUsers is the number of users that section covers.
	RetrievalSource     string `json:"retrieval_source,omitempty"`
	RerankDepth         int    `json:"rerank_depth"`
	UserFactors         bool   `json:"user_factors"`
	PersonalizableUsers int    `json:"personalizable_users"`
	// Stream reports the streaming ingestion plane (corpus-backed servers
	// with an ingestor); Replication the distribution plane (writer or
	// replica role). Both absent on a plain standalone server.
	Stream      *cubelsi.IngestStats `json:"stream,omitempty"`
	Replication *replicationStats    `json:"replication,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	eng := s.engine()
	st := eng.Stats()
	embBytes := 8 * int64(st.Tags) * int64(st.EmbeddingDim)
	if st.EmbeddingDim == 0 {
		embBytes = 8 * int64(st.Tags) * int64(st.Tags)
	}
	resp := statsResponse{
		Users:             st.Users,
		Tags:              st.Tags,
		Resources:         st.Resources,
		Assignments:       st.Assignments,
		CoreDims:          st.CoreDims,
		Concepts:          st.Concepts,
		EmbeddingDim:      st.EmbeddingDim,
		EmbeddingBytes:    embBytes,
		Fit:               st.Fit,
		ModelVersion:      eng.Version(),
		SourceFingerprint: eng.SourceFingerprint(),
		UptimeSec:         time.Since(s.started).Seconds(),
		AnnEnabled:        eng.ANNEnabled(),
		Nprobe:            eng.ANNProbe(),
		Quantization:      eng.Quantization(),
		ModelMapped:       eng.Mapped(),
		RetrievalSource:   eng.RetrievalSource(),
		RerankDepth:       eng.RetrievalDepth(),
		UserFactors:       eng.UserFactors(),
	}
	if resp.UserFactors {
		resp.PersonalizableUsers = st.Users
	}
	if s.ing != nil {
		ist := s.ing.Stats()
		resp.Stream = &ist
	}
	resp.Replication = s.replicationSection(eng.Version())
	writeJSON(w, http.StatusOK, resp)
}

// reloadRequest is the optional POST /reload body; an empty body
// reloads the path the server was started with.
type reloadRequest struct {
	Model string `json:"model,omitempty"`
}

type reloadResponse struct {
	Model        string `json:"model"`
	ModelVersion uint64 `json:"model_version"`
	// SourceFingerprint identifies the cleaned corpus the loaded model
	// was built from — the rollout check that a fleet of replicas all
	// swapped to the same lineage, not just the same version number.
	SourceFingerprint string `json:"source_fingerprint,omitempty"`
	Tags              int    `json:"tags"`
	Resources         int    `json:"resources"`
	Concepts          int    `json:"concepts"`
}

// handleReload hot-swaps the serving model from a file. Corpus-backed
// servers answer 409: their corpus of record lives in the index, and a
// file swap would silently fork it.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.idx != nil {
		writeError(w, http.StatusConflict, "server is corpus-backed; POST /stream deltas instead")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxSearchBody)
	var req reloadRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	// An absent body (plain io.EOF before any JSON) means "reload the
	// current path"; a malformed body is still an error.
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeBodyError(w, err)
		return
	}
	// Loading a large model file can outlast the server-wide write
	// deadline; lift it for this request only.
	extendDeadline(w)

	s.mu.Lock()
	defer s.mu.Unlock()
	// s.modelPath is written under s.mu, so the empty-body fallback must
	// read it under the same lock.
	path := req.Model
	if path == "" {
		path = s.modelPath
	}
	if path == "" {
		writeError(w, http.StatusBadRequest, "no model path: start with -model or provide {\"model\": ...}")
		return
	}
	eng, err := s.loadModel(path)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "reload: %v", err)
		return
	}
	s.modelPath = path
	// The displaced engine is NOT closed here: in-flight requests may
	// still be serving from its snapshot, and unmapping a live engine's
	// file would fault them. Its mapping (if any) is reclaimed by the
	// runtime finalizer once the last request drains and the engine is
	// collected.
	s.eng.Store(eng)
	st := eng.Stats()
	writeJSON(w, http.StatusOK, reloadResponse{
		Model:             path,
		ModelVersion:      eng.Version(),
		SourceFingerprint: eng.SourceFingerprint(),
		Tags:              st.Tags,
		Resources:         st.Resources,
		Concepts:          st.Concepts,
	})
}

type searchResponse struct {
	Results []cubelsi.Result `json:"results"`
}

type batchResponse struct {
	Batches [][]cubelsi.Result `json:"batches"`
}

// handleSearchGet answers GET /search?q=jazz,sax&n=10&min_score=0.05&concepts=1,2
// (also rerank= for the per-request candidate depth and user= for a
// personalized ranking when the model carries user factors).
func (s *server) handleSearchGet(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	params := r.URL.Query()
	tags := splitList(params.Get("q"))
	q := cubelsi.NewQuery(tags)
	if v := params.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad n: %v", err)
			return
		}
		q.Limit = n
	}
	if v := params.Get("min_score"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad min_score: %v", err)
			return
		}
		q.MinScore = ms
	}
	for _, c := range splitList(params.Get("concepts")) {
		id, err := strconv.Atoi(c)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad concepts: %v", err)
			return
		}
		q.Concepts = append(q.Concepts, id)
	}
	if v := params.Get("rerank"); v != "" {
		c, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad rerank: %v", err)
			return
		}
		q.Rerank = c
	}
	// An unknown user (or a model without user factors) serves the shared
	// ranking rather than erroring, so clients can send user=
	// unconditionally — /stats user_factors says whether it has effect.
	q.User = params.Get("user")
	// Concept-only queries (no q) are the concept-browsing entry point.
	if len(q.Tags) == 0 && len(q.Concepts) == 0 {
		writeError(w, http.StatusBadRequest, "missing query parameter q or concepts")
		return
	}
	if err := checkQueryOptions(q); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, searchResponse{Results: orEmpty(s.engine().Query(q))})
}

// checkQueryOptions rejects the option values Engine.WithRetrieval
// rejects on the library side, so a request cannot be silently served
// with something other than what it asked for: a negative rerank depth
// (Query.Rerank ≤ 0 means "the engine's depth"), and a NaN min_score
// (every comparison with it is false, which would switch the threshold
// off).
func checkQueryOptions(q cubelsi.Query) error {
	if q.Rerank < 0 {
		return fmt.Errorf("bad rerank: depth must be ≥ 0, got %d", q.Rerank)
	}
	if math.IsNaN(q.MinScore) {
		return errors.New("bad min_score: NaN is not a threshold")
	}
	return nil
}

// searchRequest is the POST /search body: either one query object or a
// batch under "queries".
type searchRequest struct {
	cubelsi.Query
	Queries []cubelsi.Query `json:"queries"`
}

// writeBodyError maps request-body decode failures onto the JSON error
// envelope: 413 for oversized bodies, 400 for everything else.
func writeBodyError(w http.ResponseWriter, err error) {
	httpx.WriteBodyError(w, err)
}

// handleSearchPost answers a single JSON query, or a batch through
// Engine.SearchBatch, which runs the queries in order on this handler's
// goroutine — concurrency comes from concurrent requests. The engine
// snapshot is loaded once per request, so a concurrent flush or reload
// never splits a batch across two models.
func (s *server) handleSearchPost(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	eng := s.engine()
	r.Body = http.MaxBytesReader(w, r.Body, maxSearchBody)
	var req searchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	if len(req.Queries) > 0 {
		if len(req.Tags) > 0 || req.Limit != 0 || req.MinScore != 0 || len(req.Concepts) > 0 || req.Rerank != 0 || req.User != "" {
			writeError(w, http.StatusBadRequest, "batch requests take options per query, not top-level")
			return
		}
		for i, q := range req.Queries {
			if len(q.Tags) == 0 && len(q.Concepts) == 0 {
				writeError(w, http.StatusBadRequest, "query %d: missing tags or concepts", i)
				return
			}
			if err := checkQueryOptions(q); err != nil {
				writeError(w, http.StatusBadRequest, "query %d: %v", i, err)
				return
			}
		}
		batches, err := eng.SearchBatch(req.Queries)
		if err != nil {
			// A recovered per-query panic means the model (or the engine)
			// is in a state the server cannot reason about: surface it as
			// a server-side failure rather than a silently short batch,
			// with the recovery stacks on stderr (clients get only the
			// index/value summary).
			logBatchPanics(err)
			writeError(w, http.StatusInternalServerError, "batch failed: %v", err)
			return
		}
		for i := range batches {
			batches[i] = orEmpty(batches[i])
		}
		writeJSON(w, http.StatusOK, batchResponse{Batches: batches})
		return
	}
	if len(req.Tags) == 0 && len(req.Concepts) == 0 {
		writeError(w, http.StatusBadRequest, "missing tags or concepts")
		return
	}
	if err := checkQueryOptions(req.Query); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, searchResponse{Results: orEmpty(eng.Query(req.Query))})
}

type relatedResponse struct {
	Tag     string               `json:"tag"`
	Related []cubelsi.RelatedTag `json:"related"`
}

func (s *server) handleRelated(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	params := r.URL.Query()
	tag := params.Get("tag")
	if tag == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter tag")
		return
	}
	n := 10
	if v := params.Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, "bad n: %v", err)
			return
		}
	}
	eng := s.engine()
	// Optional per-request ANN probe depth, clamped server-side to
	// [1, lists]; ignored (after validation) when ANN is off, so clients
	// can send it unconditionally.
	nprobe := 0
	if v := params.Get("nprobe"); v != "" {
		np, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad nprobe: %v", err)
			return
		}
		if lists := eng.ANNLists(); lists > 0 {
			nprobe = min(max(np, 1), lists)
		}
	}
	rel, err := eng.RelatedTagsProbe(tag, n, nprobe)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if rel == nil {
		rel = []cubelsi.RelatedTag{}
	}
	writeJSON(w, http.StatusOK, relatedResponse{Tag: tag, Related: rel})
}

type clustersResponse struct {
	Clusters [][]string `json:"clusters"`
}

func (s *server) handleClusters(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	clusters := s.engine().Clusters()
	for i := range clusters {
		if clusters[i] == nil {
			clusters[i] = []string{}
		}
	}
	writeJSON(w, http.StatusOK, clustersResponse{Clusters: clusters})
}

// orEmpty turns a nil result slice into an empty one so JSON clients
// always see an array, never null.
func orEmpty(rs []cubelsi.Result) []cubelsi.Result {
	if rs == nil {
		return []cubelsi.Result{}
	}
	return rs
}

func splitList(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}
