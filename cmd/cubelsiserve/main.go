// Command cubelsiserve serves a CubeLSI model over HTTP: load a model
// saved by `cubelsi -save` (or build one from a TSV corpus at startup)
// and answer concurrent search queries as JSON. The serving model is a
// versioned snapshot behind an atomic pointer, so it can be hot-swapped
// under live traffic: corpus-backed servers (-data) fold assignment
// deltas in through POST /stream (micro-batched, warm-started
// incremental rebuild), model-backed servers (-model) swap model files
// through POST /reload.
//
// Usage:
//
//	cubelsiserve -model model.clsi [-addr :8080] [-mmap] [-ann] [-ann-nprobe N] [-ann-rerank C]
//	cubelsiserve -data corpus.tsv [-concepts 40] [-addr :8080]
//	cubelsiserve -data corpus.tsv -spool dir -notify http://r1:8081,http://r2:8082   (fleet writer)
//	cubelsiserve -replica-of http://writer:8080 [-spool dir] [-replica-poll 30s]     (read replica)
//
// Each mode reads only its own flags, and a flag the selected mode does
// not read is a usage error (exit 2) rather than silently ignored: the
// serving flags below belong to -model and -replica-of, the build and
// -stream-* flags to -data.
//
// -mmap memory-maps the model file instead of decoding it onto the heap
// (a v4/v5 model opens in milliseconds at any size); -ann serves
// /related through the IVF approximate index over the model's concept
// centroids; -retrieve/-rerank pick /search's candidate source and the
// depth C of candidates it keeps for ranking (default: the exact scan
// over the whole corpus). All stick across /reload.
//
// Corpus-backed servers accept their delta log on POST /stream (NDJSON
// assignment records, micro-batched under the -stream-flush-* policy;
// ?flush=1 applies the batch before answering), and become the fleet's
// writer when -spool is set: every published snapshot is saved as a
// versioned model file (format v5), served on GET /model, and announced
// to the -notify replicas, which pull, SHA-256-verify and hot-swap it.
// Replicas never move backwards: a version older than the serving one
// is discarded, and the skew a lagging replica carries is visible in
// its /stats.
//
// Endpoints:
//
//	GET  /healthz                 liveness probe
//	GET  /readyz                  readiness probe (503 until a model serves)
//	GET  /stats                   corpus, model, lifecycle, stream and replication statistics
//	GET  /search?q=a,b&n=10       search (also min_score=, concepts=, rerank=, user=)
//	POST /search                  JSON query, or {"queries": [...]} batch
//	GET  /related?tag=jazz&n=10   nearest tags by purified distance (also nprobe=)
//	GET  /clusters                distilled concepts as tag groups
//	POST /reload                  hot-swap a model file (-model servers)
//	POST /stream                  NDJSON delta log, micro-batched (also ?firehose=1, ?flush=1)
//	GET  /model                   current snapshot bytes + version/sha256 headers (writer)
//	POST /notify                  snapshot announcement from the writer (replica)
//
// Every error answers with the JSON envelope {"error": "..."} and an
// appropriate status code — including 404/405 from unknown routes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro"
)

func main() {
	model := flag.String("model", "", "model file saved by cubelsi -save")
	data := flag.String("data", "", "TSV corpus to build from at startup (corpus-backed mode)")
	addr := flag.String("addr", ":8080", "listen address")
	mmap := flag.Bool("mmap", false, "memory-map the model file instead of decoding it onto the heap (v4 models open in milliseconds; applies to -model and every /reload)")
	ann := flag.Bool("ann", false, "serve /related through the IVF ANN index instead of the exact scan (model-backed servers)")
	annNprobe := flag.Int("ann-nprobe", 0, "inverted lists probed per ANN query (0 = √lists; /related?nprobe= overrides per request)")
	annRerank := flag.Int("ann-rerank", 0, "candidate depth kept before the exact rerank (0 = result size)")
	retrieveSrc := flag.String("retrieve", "", "candidate source /search ranks from: \"exact\" (the default) or \"concept\"")
	rerankDepth := flag.Int("rerank", 0, "candidate depth C kept for ranking (0 = whole corpus; /search?rerank= overrides per request)")
	concepts := flag.Int("concepts", 0, "concept count when building (0 = automatic)")
	ratio := flag.Float64("ratio", 50, "Tucker reduction ratio when building")
	minSupport := flag.Int("min-support", 5, "cleaning support threshold when building")
	seed := flag.Int64("seed", 1, "random seed when building")
	streamFlushN := flag.Int("stream-flush-n", 256, "flush the /stream micro-batch after this many pending assignment changes")
	streamFlushT := flag.Duration("stream-flush-interval", 2*time.Second, "flush the /stream micro-batch at least this often")
	streamFlushDrift := flag.Float64("stream-flush-drift", 0.05, "flush when the pending changes' embedding-drift estimate reaches this fraction of the vocabulary (negative disables)")
	streamQueue := flag.Int("stream-queue", 4096, "bound on pending /stream changes before backpressure (429)")
	streamIdemWindow := flag.Int("stream-idem-window", 1024, "per-client sequence-number window for idempotent /stream redelivery")
	notify := flag.String("notify", "", "comma-separated replica base URLs to announce published snapshots to (writer; requires -spool)")
	spool := flag.String("spool", "", "directory for versioned model snapshots (writer: published; replica: pulled)")
	replicaOf := flag.String("replica-of", "", "writer base URL to replicate from (read-only replica mode)")
	replicaPoll := flag.Duration("replica-poll", 30*time.Second, "anti-entropy poll interval against the writer when notifies are lost")
	flag.Parse()

	mode := serveMode(*model, *data, *replicaOf)
	if mode == "" {
		fmt.Fprintln(os.Stderr, "cubelsiserve: -model, -data or -replica-of is required")
		flag.Usage()
		os.Exit(2)
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkModeFlags(mode, set); err != nil {
		fmt.Fprintf(os.Stderr, "cubelsiserve: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var srv *server
	switch mode {
	case "model", "replica":
		srv = newLifecycleServer(nil, nil, *model)
		srv.mmap = *mmap
		srv.ann = *ann || *annNprobe > 0 || *annRerank > 0
		srv.annProbe = *annNprobe
		srv.annRerank = *annRerank
		srv.retrieveSrc = *retrieveSrc
		if *rerankDepth > 0 {
			if srv.retrieveSrc == "" {
				srv.retrieveSrc = "exact"
			}
			srv.retrieveDepth = *rerankDepth
		}
		if *model != "" {
			// The model to serve; for a replica, an optional warm seed served
			// until its first pull (its version also arms the monotonic
			// guard).
			eng, err := srv.loadModel(*model)
			if err != nil {
				fatal(err)
			}
			srv.eng.Store(eng)
		}
		if mode == "replica" {
			sp := *spool
			if sp == "" {
				var err error
				if sp, err = os.MkdirTemp("", "cubelsi-replica-*"); err != nil {
					fatal(err)
				}
			}
			srv.enableReplica(strings.TrimRight(*replicaOf, "/"), sp, *replicaPoll)
			go srv.puller.Run(ctx, *replicaPoll)
		}
	case "data":
		cfg := cubelsi.DefaultConfig()
		cfg.ReductionRatios = [3]float64{*ratio, *ratio, *ratio}
		cfg.Concepts = *concepts
		cfg.MinSupport = *minSupport
		cfg.Seed = *seed
		idx, err := cubelsi.NewIndex(ctx, cubelsi.FromTSVFile(*data),
			cubelsi.WithConfig(cfg),
			cubelsi.WithProgress(func(p cubelsi.Progress) {
				if p.Done {
					fmt.Fprintf(os.Stderr, "build: stage %-10s done in %v\n", p.Stage, p.Elapsed)
				}
			}))
		if err != nil {
			fatal(err)
		}
		srv = newLifecycleServer(nil, idx, "")
		if *notify != "" && *spool == "" {
			fatal(errors.New("-notify requires -spool: announced snapshots must live somewhere replicas can pull from"))
		}
		if *spool != "" {
			if err := os.MkdirAll(*spool, 0o755); err != nil {
				fatal(err)
			}
			srv.enableWriter(*spool, splitList(*notify))
		}
		if err := srv.enableStreaming(
			cubelsi.WithFlushEvery(*streamFlushN),
			cubelsi.WithFlushInterval(*streamFlushT),
			cubelsi.WithFlushDrift(*streamFlushDrift),
			cubelsi.WithQueueCapacity(*streamQueue),
			cubelsi.WithIdempotencyWindow(*streamIdemWindow),
		); err != nil {
			fatal(err)
		}
		if srv.pub != nil {
			// Publish the initial build so replicas started before their
			// writer converge without waiting for the first delta.
			srv.publishSnapshot(idx.Snapshot())
		}
	}

	if eng := srv.engine(); eng != nil {
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "serving %d resources / %d tags / %d concepts (model v%d) on %s\n",
			st.Resources, st.Tags, st.Concepts, eng.Version(), *addr)
	} else {
		fmt.Fprintf(os.Stderr, "replica of %s on %s: waiting for the first model\n", *replicaOf, *addr)
	}

	// Per-request timeouts: slow-loris headers, slow bodies and stuck
	// writes all terminate instead of pinning a connection forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		if srv.ing != nil {
			// Flush the streamed tail before exiting; accepted records must
			// not die in the queue.
			if err := srv.ing.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cubelsiserve: final flush: %v\n", err)
			}
		}
	}
}

// Flags each serving mode reads; -addr is read by every mode. A flag
// set outside its mode would be ignored silently, so main rejects it.
var (
	servingFlags = []string{"mmap", "ann", "ann-nprobe", "ann-rerank", "retrieve", "rerank"}
	modeFlags    = map[string][]string{
		"model": append([]string{"model"}, servingFlags...),
		"data": {"data", "concepts", "ratio", "min-support", "seed",
			"stream-flush-n", "stream-flush-interval", "stream-flush-drift", "stream-queue", "stream-idem-window",
			"spool", "notify"},
		"replica": append([]string{"replica-of", "replica-poll", "spool", "model"}, servingFlags...),
	}
)

// serveMode selects the serving mode from the mode flags, in precedence
// order: a replica (-replica-of, optionally warm-seeded by -model), a
// model-backed server (-model), a corpus-backed one (-data). It returns
// "" when none is set.
func serveMode(model, data, replicaOf string) string {
	switch {
	case replicaOf != "":
		return "replica"
	case model != "":
		return "model"
	case data != "":
		return "data"
	}
	return ""
}

// checkModeFlags rejects the first flag in set (names as flag.Visit
// reports them) that mode does not read.
func checkModeFlags(mode string, set []string) error {
	for _, name := range set {
		if name != "addr" && !slices.Contains(modeFlags[mode], name) {
			return fmt.Errorf("-%s is not read in %s mode", name, mode)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cubelsiserve: %v\n", err)
	os.Exit(1)
}
