package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/retrieve"
	"repro/internal/tagging"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// The traced run (-trace 1): per-layer metrics, measured from here by
// timing calls into each layer's public functions on the workload's own
// corpus, model and query stream. End-to-end metrics are never taken
// from this run.

// buildConfig is the configuration the CLI builds with at -ratio R:
// cubelsi.DefaultConfig plus the ratio (cmd/cubelsi buildFlags.options,
// and the same in cmd/cubelsiserve). Seed 1 is both commands' -seed
// default.
func (w workload) buildConfig() cubelsi.Config {
	cfg := cubelsi.DefaultConfig()
	cfg.ReductionRatios = [3]float64{w.ratio, w.ratio, w.ratio}
	cfg.Seed = 1
	return cfg
}

// coreOptions mirrors the root package's mapping of a Config onto the
// pipeline options; the traced run checks its in-process build against
// the write server's /stats so a drift between the two cannot go
// unnoticed.
func coreOptions(cfg cubelsi.Config, st tagging.Stats) core.Options {
	j1, j2, j3 := tucker.FromRatios(st.Users, st.Tags, st.Resources,
		cfg.ReductionRatios[0], cfg.ReductionRatios[1], cfg.ReductionRatios[2])
	return core.Options{
		Tucker:   tucker.Options{J1: j1, J2: j2, J3: j3, MaxSweeps: cfg.MaxSweeps, Seed: uint64(cfg.Seed)},
		Spectral: cluster.SpectralOptions{Sigma: cfg.Sigma, K: cfg.Concepts, Seed: cfg.Seed},
	}
}

func cleanOptions(cfg cubelsi.Config) tagging.CleanOptions {
	return tagging.CleanOptions{MinSupport: cfg.MinSupport, DropSystemTags: cfg.DropSystemTags, Lowercase: cfg.Lowercase}
}

// tracedBuild is the offline pipeline stage by stage, in core.Build
// order, over the base corpus — what the write server builds at start.
func tracedBuild(ctx context.Context, tr *tracer, e *env, r *result) (*core.Pipeline, error) {
	cfg := e.w.buildConfig()
	p := &core.Pipeline{}
	var err error

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.start(0, "build")
	var raw *tagging.Dataset
	r.metrics["tagging.load_ms"] = ms(tr.in(root, "tagging.load", func() { raw, err = tagging.LoadFile(e.baseTSV) }))
	if err != nil {
		return nil, err
	}
	r.metrics["tagging.clean_ms"] = ms(tr.in(root, "tagging.clean", func() { p.DS = tagging.Clean(raw, cleanOptions(cfg)) }))
	opts := coreOptions(cfg, p.DS.Stats())
	r.metrics["tensor.build_ms"] = ms(tr.in(root, "tensor.build", func() { p.Tensor = p.DS.Tensor() }))
	decompose := tr.in(root, "tucker.decompose", func() {
		p.Decomposition, err = tucker.DecomposeContext(ctx, p.Tensor, opts.Tucker)
	})
	if err != nil {
		return nil, err
	}
	r.metrics["embed.project_ms"] = ms(tr.in(root, "embed.project", func() { p.Embedding = embed.FromDecomposition(p.Decomposition) }))
	r.metrics["cluster.kmeans_ms"] = ms(tr.in(root, "cluster.kmeans", func() {
		res := cluster.ConceptKMeans(p.Embedding.Matrix(), p.Decomposition.Lambda[1], opts.Spectral)
		p.Assign, p.K = res.Assign, res.K
	}))
	r.metrics["ir.index_ms"] = ms(tr.in(root, "ir.index", func() {
		docs := make([]map[int]int, p.DS.Resources.Len())
		for res, tagCounts := range p.DS.ResourceTags() {
			docs[res] = ir.MapToConcepts(tagCounts, p.Assign)
		}
		p.Index = ir.BuildIndex(docs, p.K)
	}))
	tr.end(root)
	runtime.ReadMemStats(&after)

	total := tr.spans[root-1].dur()
	r.metrics["tucker.decompose_ms"] = ms(decompose)
	r.metrics["tucker.decompose_share"] = float64(decompose) / float64(total)
	r.metrics["tucker.sweeps"] = float64(p.Decomposition.Sweeps)
	r.metrics["tucker.fit"] = p.Decomposition.Fit
	r.metrics["tagging.assignments"] = float64(p.DS.Stats().Assignments)
	r.metrics["tensor.nnz"] = float64(p.Tensor.NNZ())
	r.metrics["cluster.concepts"] = float64(p.K)
	r.metrics["cubelsi.build_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	r.evidence["tucker.decompose_share"] = fmt.Sprintf("of a %.0f ms traced build", ms(total))
	return p, nil
}

// perMode times one projected unfolding and one leading-left SVD per
// mode on the converged factors — the two calls every ALS sweep makes
// three times, with the sweep's own eigensolver budget.
func perMode(p *core.Pipeline, seed uint64, r *result) {
	d := p.Decomposition
	j1, j2, j3 := d.CoreDims()
	sub := mat.SubspaceOptions{Seed: seed, MaxIter: 45, Tol: 1e-6}
	for _, m := range []struct {
		mode   int
		ya, yb *mat.Matrix
		j      int
	}{{1, d.Y2, d.Y3, j1}, {2, d.Y1, d.Y3, j2}, {3, d.Y1, d.Y2, j3}} {
		start := time.Now()
		w := tensor.ProjectedUnfoldWorkers(p.Tensor, m.mode, m.ya, m.yb, 0)
		unfold := time.Since(start)
		start = time.Now()
		mat.LeftSVD(w, m.j, sub)
		svd := time.Since(start)
		rows, cols := w.Dims()
		r.metrics[fmt.Sprintf("tensor.unfold_mode%d_ms", m.mode)] = ms(unfold)
		r.metrics[fmt.Sprintf("mat.left_svd_mode%d_ms", m.mode)] = ms(svd)
		r.evidence[fmt.Sprintf("mat.left_svd_mode%d_ms", m.mode)] = fmt.Sprintf("%d×%d unfolding, %d leading vectors", rows, cols, m.j)
	}
}

// warmUpdate times core.Update from the traced build to the full corpus
// (base, then the delta in stream order) — the call a flush spends its
// time in.
func warmUpdate(ctx context.Context, e *env, p *core.Pipeline, r *result) (*core.Pipeline, error) {
	cfg := e.w.buildConfig()
	raw, err := tagging.LoadFile(e.baseTSV)
	if err != nil {
		return nil, err
	}
	for _, rec := range e.in.delta {
		raw.Add(rec.User, rec.Tag, rec.Resource)
	}
	ds := tagging.Clean(raw, cleanOptions(cfg))
	prev := &core.PrevState{
		TagNames: p.DS.Tags.Names(), ResourceNames: p.DS.Resources.Names(),
		Warm:      &tucker.WarmStart{Y2: p.Decomposition.Y2, Y3: p.Decomposition.Y3},
		Embedding: p.Embedding, Assign: p.Assign, K: p.K,
	}
	start := time.Now()
	up, st, err := core.Update(ctx, ds, prev, coreOptions(cfg, ds.Stats()), core.UpdateOptions{})
	if err != nil {
		return nil, err
	}
	r.metrics["core.update_ms"] = ms(time.Since(start))
	r.metrics["core.update_sweeps"] = float64(st.Sweeps)
	r.metrics["core.moved_tags"] = float64(st.MovedTags)
	return up, nil
}

// usPer is the mean microseconds per call of f over n calls.
func usPer(n int, f func(i int)) float64 {
	start := time.Now()
	for i := range n {
		f(i)
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(n)
}

// queryRepeats is how many passes over the 128 evaluation queries the
// in-process query-side timings average over.
const queryRepeats = 8

// replay is a candidate source that hands back precomputed candidates,
// so Pipeline.Search over it costs stage two alone.
type replay struct{ cands []ir.Scored }

func (replay) Name() string { return "replay" }
func (s replay) Candidates(*ir.Index, map[int]float64, int) []ir.Scored {
	return append([]ir.Scored(nil), s.cands...)
}

// queryLayers measures the query side layer by layer on the model file
// the read server serves: map → weights → stage1 → stage2 for every
// evaluation query, as spans and as means.
func queryLayers(tr *tracer, e *env, m *codec.Model, tagID map[string]int, r *result) error {
	ix := m.Index
	source, err := retrieve.ByName(e.w.retrieve)
	if err != nil {
		return err
	}
	depth := e.w.rerank
	if depth <= 0 || depth > ix.NumDocs() {
		depth = ix.NumDocs()
	}
	served, err := retrieve.New(source, e.w.rerank)
	if err != nil {
		return err
	}
	counts := make([]map[int]int, len(e.in.queries))
	for qi, q := range e.in.queries {
		counts[qi] = make(map[int]int, len(q.Tags))
		for _, t := range q.Tags {
			if id, ok := tagID[t]; ok {
				counts[qi][id]++
			}
		}
	}

	// staged runs the four stages of every query once, under t.
	var mapD, weightsD, stage1D, stage2D time.Duration
	var cands, scanned, hits, exactTotal int
	staged := func(t *tracer, account bool) time.Duration {
		begin := time.Now()
		for qi := range counts {
			root := t.start(0, "query")
			var concepts map[int]int
			var qw map[int]float64
			var c1 []ir.Scored
			var top []ir.Scored
			d0 := t.in(root, "ir.map_concepts", func() { concepts = ir.MapToConcepts(counts[qi], m.Assign) })
			d1 := t.in(root, "ir.query_weights", func() { qw = ix.QueryWeights(concepts) })
			d2 := t.in(root, "retrieve.stage1", func() { c1 = source.Candidates(ix, qw, depth) })
			stage2 := &replay{cands: c1}
			p2, _ := retrieve.New(stage2, 0) // depth 0 is valid by construction
			d3 := t.in(root, "retrieve.stage2", func() {
				top = p2.Search(ix, retrieve.Request{Weights: qw, Limit: resultLimit})
			})
			t.end(root)
			if !account {
				continue
			}
			mapD, weightsD, stage1D, stage2D = mapD+d0, weightsD+d1, stage1D+d2, stage2D+d3
			cands += len(c1)
			for term := range qw {
				scanned += ix.DocFreq(term)
			}
			exact := ix.RankWeights(qw, resultLimit, math.Inf(-1))
			in := make(map[int]bool, len(exact))
			for _, s := range exact {
				in[s.Doc] = true
			}
			for _, s := range top {
				if in[s.Doc] {
					hits++
				}
			}
			exactTotal += len(exact)
		}
		return time.Since(begin)
	}

	staged(nil, false) // warm the forward view and the caches
	staged(tr, true)
	n := float64(len(counts))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	r.metrics["ir.map_concepts_us"] = us(mapD)
	r.metrics["ir.query_weights_us"] = us(weightsD)
	r.metrics["retrieve.stage1_us"] = us(stage1D)
	r.metrics["retrieve.stage2_us"] = us(stage2D)
	r.metrics["retrieve.candidates"] = float64(cands) / n
	r.metrics["ir.postings_scanned"] = float64(scanned) / n
	r.metrics["retrieve.recall_at_10"] = float64(hits) / float64(exactTotal)
	r.evidence["retrieve.recall_at_10"] = fmt.Sprintf("%d of %d exact top-%d documents served", hits, exactTotal, resultLimit)

	postings := 0
	for t := range ix.NumTerms() {
		postings += ix.DocFreq(t)
	}
	r.metrics["ir.postings"] = float64(postings)

	weights := make([]map[int]float64, len(counts))
	for qi := range counts {
		weights[qi] = ix.QueryWeights(ir.MapToConcepts(counts[qi], m.Assign))
	}
	r.metrics["retrieve.search_us"] = usPer(queryRepeats*len(counts), func(i int) {
		served.Search(ix, retrieve.Request{Weights: weights[i%len(counts)], Limit: resultLimit})
	})

	// What the spans themselves cost: the same staged passes with the
	// tracer on and off, alternating, medians compared.
	var on, off []float64
	for range queryRepeats {
		off = append(off, float64(staged(nil, false)))
		on = append(on, float64(staged(newTracer(), false)))
	}
	r.metrics["trace.overhead_pct"] = 100 * (median(on) - median(off)) / median(off)
	r.evidence["trace.overhead_pct"] = fmt.Sprintf("staged query pass %.0f µs traced, %.0f µs untraced", median(on)/1e3, median(off)/1e3)
	return nil
}

// embedLayers measures the related-tags lookups: the exact scan and the
// IVF index over the concept centroids, on the evaluation queries' tags.
func embedLayers(e *env, m *codec.Model, tagID map[string]int, r *result) error {
	emb := embed.FromMatrix(m.Embedding)
	var probes []int
	for _, req := range e.in.pool[classRelated] {
		if id, ok := tagID[req.tag]; ok {
			probes = append(probes, id)
		}
	}
	if len(probes) == 0 {
		return fmt.Errorf("bench: no evaluation tag is in the model vocabulary")
	}
	r.metrics["embed.nearestk_us"] = usPer(queryRepeats*len(probes), func(i int) { emb.NearestK(probes[i%len(probes)], resultLimit) })
	centers, _ := cluster.Centroids(emb.Matrix(), m.Assign, m.K, nil)
	ivf, err := embed.NewIVF(emb, centers)
	if err != nil {
		return err
	}
	r.metrics["embed.ivf_nearestk_us"] = usPer(queryRepeats*len(probes), func(i int) { ivf.NearestK(probes[i%len(probes)], resultLimit, 0, 0) })
	r.metrics["embed.ivf_recall_at_10"] = ivf.Recall(probes, resultLimit, 0, 0)
	return nil
}

// codecLayers measures the model file's three paths: heap decode,
// mapped open, and re-encode.
func codecLayers(e *env, r *result) (*codec.Model, error) {
	info, err := os.Stat(e.model)
	if err != nil {
		return nil, err
	}
	r.metrics["codec.model_bytes"] = float64(info.Size())

	start := time.Now()
	mapped, err := codec.ReadMapped(e.model)
	if err != nil {
		return nil, err
	}
	r.metrics["codec.load_mapped_ms"] = ms(time.Since(start))
	if err := mapped.Mapped.Close(); err != nil {
		return nil, err
	}

	data, err := os.ReadFile(e.model)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	m, err := codec.Read(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	r.metrics["codec.load_ms"] = ms(time.Since(start))

	var buf bytes.Buffer
	buf.Grow(len(data))
	start = time.Now()
	if err := codec.Write(&buf, m); err != nil {
		return nil, err
	}
	r.metrics["codec.write_ms"] = ms(time.Since(start))
	r.check(bytes.Equal(buf.Bytes(), data), "codec: re-encoding the decoded model file changed its bytes")
	return m, nil
}

// engineLayers measures the public engine on the loaded model file,
// with the workload's serving options: the in-process cost of each HTTP
// class, and what one query allocates.
func engineLayers(e *env, eng *cubelsi.Engine, r *result) {
	pool := &e.in.pool
	n := queryRepeats * numQueries
	r.metrics["cubelsi.query_us"] = usPer(n, func(i int) { eng.Query(pool[classSearch][i%numQueries].queries[0]) })
	r.metrics["cubelsi.user_query_us"] = usPer(n, func(i int) { eng.Query(pool[classUser][i%numQueries].queries[0]) })
	r.metrics["cubelsi.batch8_us"] = usPer(queryRepeats*numBatches, func(i int) {
		_, _ = eng.SearchBatch(pool[classBatch][i%numBatches].queries) // the oracle already compared these answers
	})

	// Allocations of one pass over the 128 shared queries, per query.
	pass := func() {
		for i := range pool[classSearch] {
			eng.Query(pool[classSearch][i].queries[0])
		}
	}
	r.metrics["cubelsi.query_allocs"] = testing.AllocsPerRun(10, pass) / numQueries
	prev := runtime.GOMAXPROCS(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		pass()
	}
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(prev)
	r.metrics["cubelsi.query_alloc_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / (10 * numQueries)
}

// ingestLayers measures Ingestor.Offer in-process. The ingestor needs
// an Index, and an Index needs a build; Offer's cost does not depend on
// the model's quality, so the build runs a single ALS sweep.
func ingestLayers(ctx context.Context, e *env, r *result) error {
	cfg := e.w.buildConfig()
	cfg.MaxSweeps = 1
	idx, err := cubelsi.NewIndex(ctx, cubelsi.FromDataset(e.in.base), cubelsi.WithConfig(cfg))
	if err != nil {
		return err
	}
	ing, err := cubelsi.NewIngestor(idx, cubelsi.WithFlushEvery(1<<30), cubelsi.WithFlushInterval(time.Hour), cubelsi.WithFlushDrift(-1))
	if err != nil {
		return err
	}
	var offerErr error
	r.metrics["cubelsi.offer_us"] = usPer(len(e.in.delta), func(i int) {
		if st, err := ing.Offer(e.in.delta[i]); err != nil || st != cubelsi.OfferAccepted {
			offerErr = fmt.Errorf("bench: Offer(%+v) = %v, %v", e.in.delta[i], st, err)
		}
	})
	// Nothing offered here needs to become visible: drop the records by
	// retracting them, so Close has nothing to rebuild.
	for _, rec := range e.in.delta {
		rec.Op = "remove"
		if _, err := ing.Offer(rec); err != nil {
			offerErr = err
		}
	}
	return errors.Join(offerErr, ing.Close())
}

// serveLayers measures the two servers as processes: a short closed
// loop against the read server, then the write server's stream and
// flush path with one reader beside the writer.
func serveLayers(ctx context.Context, e *env, eng *cubelsi.Engine, built *core.Pipeline, updated *core.Pipeline, r *result) error {
	srv, err := e.startRead(ctx)
	if err != nil {
		return err
	}
	err = func() error {
		defer srv.stop()
		if _, err := e.oracle(srv, eng, r); err != nil {
			return err
		}
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return err
		}
		rd, err := e.read(srv, r, max(e.cfg.windows/e.cfg.epochs, 1))
		if err != nil {
			return err
		}
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return err
		}
		search := lowest(bestWindows(rd.windows), classSearch, func(w windowStats) float64 { return w.p50[classSearch] })
		r.metrics["cubelsiserve.http_overhead_us"] = search.value*1000 - r.metrics["cubelsi.query_us"]
		r.evidence["cubelsiserve.http_overhead_us"] = fmt.Sprintf("HTTP search p50 %.1f µs − in-process query %.1f µs", search.value*1000, r.metrics["cubelsi.query_us"])
		r.metrics["cubelsiserve.load_ms"] = ms(srv.ready)
		r.metrics["cubelsiserve.cpu_us_per_req"] = (cpu1 - cpu0) * 1e6 / float64(rd.attempted)
		r.metrics["cubelsiserve.resp_bytes"] = float64(rd.respBytes) / float64(rd.attempted)
		return nil
	}()
	if err != nil {
		return err
	}

	wsrv, err := e.startWrite(ctx)
	if err != nil {
		return err
	}
	defer wsrv.stop()
	// The write server built from the same base corpus with the same
	// flags: its model must be the traced build's, to the last bit.
	st, err := getStats(wsrv.addr)
	if err != nil {
		return err
	}
	j1, j2, j3 := built.Decomposition.CoreDims()
	r.check(st.Fit == built.Decomposition.Fit && st.Concepts == built.K && st.CoreDims == [3]int{j1, j2, j3},
		"trace: the in-process build (fit %v, %d concepts, core %v) is not the server's (fit %v, %d concepts, core %v)",
		built.Decomposition.Fit, built.K, [3]int{j1, j2, j3}, st.Fit, st.Concepts, st.CoreDims)

	accepted, _, took, err := postStream(wsrv.addr, false, e.in.deltaNDJSON())
	if err != nil {
		return err
	}
	r.check(accepted == len(e.in.delta), "trace: /stream accepted %d of %d records", accepted, len(e.in.delta))
	r.metrics["cubelsiserve.stream_post_ms"] = ms(took)

	// Reads beside writes: one reader runs shared searches while the
	// forced flush rebuilds.
	var flushing atomic.Bool
	flushing.Store(true)
	var lat []float64
	var readerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := dial(wsrv.addr)
		if err != nil {
			readerErr = err
			return
		}
		defer c.close()
		for i := 0; flushing.Load(); i++ {
			start := time.Now()
			status, _, err := c.roundTrip(e.in.pool[classSearch][i%numQueries].wire, 30*time.Second)
			if err != nil || status != 200 {
				readerErr = fmt.Errorf("bench: search during flush: status %d, %v", status, err)
				return
			}
			lat = append(lat, ms(time.Since(start)))
		}
	}()
	_, version, _, err := postStream(wsrv.addr, true, nil)
	flushing.Store(false)
	wg.Wait()
	if err := errors.Join(err, readerErr); err != nil {
		return err
	}
	r.check(version == 2, "trace: forced flush reported model_version %d, want 2", version)
	sort.Float64s(lat)
	r.metrics["cubelsiserve.search_during_flush_p50_ms"] = percentile(lat, 50)
	r.evidence["cubelsiserve.search_during_flush_p50_ms"] = fmt.Sprintf("%d searches by one reader while the flush ran", len(lat))

	if st, err = e.checkFlushed(wsrv.addr, r, eng.Stats()); err != nil {
		return err
	}
	// The Ingestor's own clock around its flush, as /stats reports it.
	r.metrics["cubelsi.flush_ms"] = st.Stream.LastFlushMS
	r.check(math.Abs(st.Fit-updated.Decomposition.Fit) <= 1e-9,
		"trace: the in-process warm update reached fit %v, the server's flush %v", updated.Decomposition.Fit, st.Fit)
	return nil
}

// runTraced is the -trace 1 run: every per-layer metric, and the span
// file bench/.build/trace_<workload>.json.
func runTraced(ctx context.Context, cfg *config, w workload, seed int64) (*result, error) {
	r := newResult(w, seed)
	e, err := prepare(cfg, w, seed)
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	tr := newTracer()

	_, peak, err := e.buildPhase(ctx, r)
	if err != nil {
		return nil, err
	}
	r.metrics["cubelsi.build_peak_rss_mb"] = peak

	built, err := tracedBuild(ctx, tr, e, r)
	if err != nil {
		return nil, err
	}
	perMode(built, uint64(w.buildConfig().Seed), r)
	updated, err := warmUpdate(ctx, e, built, r)
	if err != nil {
		return nil, err
	}

	m, err := codecLayers(e, r)
	if err != nil {
		return nil, err
	}
	tagID := make(map[string]int, len(m.Tags))
	for id, name := range m.Tags {
		tagID[name] = id
	}
	if err := queryLayers(tr, e, m, tagID, r); err != nil {
		return nil, err
	}
	if err := embedLayers(e, m, tagID, r); err != nil {
		return nil, err
	}
	eng, err := w.loadEngine(e.model)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	engineLayers(e, eng, r)
	if err := ingestLayers(ctx, e, r); err != nil {
		return nil, err
	}
	if err := serveLayers(ctx, e, eng, built, updated, r); err != nil {
		return nil, err
	}
	e.hostMetrics(r)

	self := tr.selfTimes()
	for name, share := range tr.coverage() {
		r.notes = append(r.notes, fmt.Sprintf("spans: the children of the %q roots cover %.1f %% of them; self time %.3f ms", name, 100*share, ms(self[name])))
	}
	sort.Strings(r.notes)
	r.traceFile = filepath.Join(cfg.buildDir, cfg.tracePrefix+w.name+".json")
	return r, tr.write(r.traceFile)
}
