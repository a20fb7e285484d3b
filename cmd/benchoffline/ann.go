package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/quant"
	"repro/internal/tucker"
)

// annPoint is one IVF-vs-exact RelatedTags measurement at a fixed
// vocabulary scale: the p99 of the exact O(|T|·k₂) scan, the p99 of the
// IVF index at the smallest nprobe reaching recall@10 ≥ 0.95 on the
// same probe set, and the recall it actually reached.
type annPoint struct {
	Tags     int     `json:"tags"`
	K2       int     `json:"k2"`
	Lists    int     `json:"lists"`
	Nprobe   int     `json:"nprobe"`
	Rerank   int     `json:"rerank"`
	Probes   int     `json:"probes"`
	ExactP99 float64 `json:"exact_p99_ms"`
	P99      float64 `json:"p99_ms"`
	Recall   float64 `json:"recall_at_10"`
	Speedup  float64 `json:"speedup_vs_exact"`
	RSSKB    int64   `json:"rss_kb"`
}

// mmapLoadReport compares heap-decoding a v3 model file against
// memory-mapping the same model in v4 (with an int8 section), at a
// serving-like scale. RSS deltas are measured around each load with the
// heap settled, so the mapped number shows what stays off-heap.
type mmapLoadReport struct {
	Tags          int     `json:"tags"`
	K2            int     `json:"k2"`
	V3Bytes       int64   `json:"v3_bytes"`
	V4Bytes       int64   `json:"v4_bytes"`
	V3DecodeMS    float64 `json:"v3_decode_ms"`
	MappedLoadMS  float64 `json:"mapped_load_ms"`
	Speedup       float64 `json:"speedup_vs_v3"`
	V3RSSDeltaKB  int64   `json:"v3_rss_delta_kb"`
	MapRSSDeltaKB int64   `json:"mapped_rss_delta_kb"`
	RankParity    bool    `json:"rank_parity"`
}

// annReport is the sublinear-serving record: IVF points at growing
// vocabulary scales plus the mmap loading comparison. The perf gate
// tracks each point's p99 and recall and the mapped load time.
type annReport struct {
	Points []annPoint      `json:"tags"`
	Mmap   *mmapLoadReport `json:"mmap,omitempty"`
}

// benchANN measures IVF-vs-exact RelatedTags at the two ANN bench
// scales, then the mmap loading comparison.
func benchANN() annReport {
	rep := annReport{}
	for _, params := range []datagen.Params{datagen.Tags10K(), datagen.Tags100K()} {
		rep.Points = append(rep.Points, benchANNPoint(params))
	}
	mm := benchMmapLoad()
	rep.Mmap = &mm
	return rep
}

// benchANNPoint generates the preset's corpus for its cleaned tag
// vocabulary and concept ground truth, synthesizes a concept-clustered
// embedding over it (the offline pipeline at this scale would dominate
// the benchmark without changing what the IVF index sees: rows grouped
// around concept centroids), and measures exact-vs-IVF RelatedTags.
func benchANNPoint(params datagen.Params) annPoint {
	fmt.Fprintf(os.Stderr, "benchoffline: ann benchmark, generating %s corpus\n", params.Name)
	corpus := datagen.Generate(params)
	n := corpus.Clean.Stats().Tags
	k := params.NumConcepts()
	const k2 = 64
	const topK = 10
	const numProbes = 200

	rng := rand.New(rand.NewSource(params.Seed))
	bases := mat.New(k, k2)
	for c := range k {
		row := bases.Row(c)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	m := mat.New(n, k2)
	assign := make([]int, n)
	for t := range n {
		c := rng.Intn(k)
		if gt := corpus.TagConcepts[t]; len(gt) > 0 {
			c = gt[0]
		}
		assign[t] = c
		base := bases.Row(c)
		row := m.Row(t)
		for j := range row {
			row[j] = base[j] + 0.6*rng.NormFloat64()
		}
	}

	emb := embed.FromMatrix(m)
	centers, _ := cluster.Centroids(m, assign, k, nil)
	ivf, err := embed.NewIVF(emb, centers)
	if err != nil {
		fatal(err)
	}

	probes := rng.Perm(n)[:numProbes]
	pt := annPoint{Tags: n, K2: k2, Lists: ivf.Lists(), Rerank: 4 * topK, Probes: numProbes}

	fmt.Fprintf(os.Stderr, "benchoffline: ann benchmark, exact scan (|T|=%d)\n", n)
	exact := make([]float64, 0, numProbes)
	for _, t := range probes {
		start := time.Now()
		emb.NearestK(t, topK)
		exact = append(exact, float64(time.Since(start).Nanoseconds())/1e6)
	}
	pt.ExactP99 = p99(exact)

	// Smallest nprobe on a doubling ladder whose recall@10 over the probe
	// set clears 0.95; the full-probe fallback is exact-parity, so the
	// ladder always terminates above the target.
	for np := 1; ; np *= 2 {
		if np > ivf.Lists() {
			np = ivf.Lists()
		}
		r := ivf.Recall(probes, topK, np, pt.Rerank)
		fmt.Fprintf(os.Stderr, "benchoffline: ann benchmark, nprobe=%d recall@10=%.3f\n", np, r)
		if r >= 0.95 || np == ivf.Lists() {
			pt.Nprobe, pt.Recall = np, r
			break
		}
	}

	ivfLat := make([]float64, 0, numProbes)
	for _, t := range probes {
		start := time.Now()
		ivf.NearestK(t, topK, pt.Nprobe, pt.Rerank)
		ivfLat = append(ivfLat, float64(time.Since(start).Nanoseconds())/1e6)
	}
	pt.P99 = p99(ivfLat)
	if pt.P99 > 0 {
		pt.Speedup = pt.ExactP99 / pt.P99
	}
	pt.RSSKB = readRSSKB()
	return pt
}

// benchMmapLoad builds a serving-scale synthetic model (10⁵ tags,
// k₂=128, warm factors as Engine.Save ships by default), writes it as a
// v3 stream and as a v4 file with an int8 section, then times the two
// load paths through the public API and checks they rank identically.
func benchMmapLoad() mmapLoadReport {
	const n = 100000
	const k2 = 128
	const resources = 1000
	fmt.Fprintf(os.Stderr, "benchoffline: mmap benchmark, building synthetic model (|T|=%d, k2=%d)\n", n, k2)

	rng := rand.New(rand.NewSource(7))
	tags := make([]string, n)
	for i := range tags {
		tags[i] = "tag" + strconv.Itoa(i)
	}
	resNames := make([]string, resources)
	docs := make([]map[int]int, resources)
	for i := range resNames {
		resNames[i] = "r" + strconv.Itoa(i)
		docs[i] = map[int]int{0: 1}
	}
	embM := mat.New(n, k2)
	data := embM.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	model := &codec.Model{
		Lowercase: true,
		Users:     []string{"u0"},
		Tags:      tags,
		Resources: resNames,
		CoreDims:  [3]int{1, k2, 64},
		Warm:      &tucker.WarmStart{Y2: embM, Y3: mat.New(resources, 64)},
		Embedding: embM,
		Assign:    make([]int, n),
		K:         1,
		Index:     ir.BuildIndex(docs, 1),
	}

	dir, err := os.MkdirTemp("", "benchmmap")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	v3Path := filepath.Join(dir, "model.v3.clsi")
	v4Path := filepath.Join(dir, "model.v4.clsi")
	writeModel := func(path string, write func(f *os.File) error) int64 {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			fatal(err)
		}
		return fi.Size()
	}
	rep := mmapLoadReport{Tags: n, K2: k2}
	rep.V3Bytes = writeModel(v3Path, func(f *os.File) error { return codec.WriteV3(f, model) }) //nolint:staticcheck // v3 path measured intentionally
	model.Quant8 = quant.QuantizeInt8(embM)
	rep.V4Bytes = writeModel(v4Path, func(f *os.File) error { return codec.Write(f, model) })

	// Force retained heap back to the OS before each baseline so the RSS
	// deltas measure what each load path keeps resident, not leftover
	// model-construction transients the runtime hadn't released yet.
	fmt.Fprintf(os.Stderr, "benchoffline: mmap benchmark, v3 heap decode\n")
	debug.FreeOSMemory()
	before := readRSSKB()
	start := time.Now()
	heapEng, err := cubelsi.LoadFile(v3Path)
	if err != nil {
		fatal(err)
	}
	rep.V3DecodeMS = float64(time.Since(start).Nanoseconds()) / 1e6
	debug.FreeOSMemory()
	rep.V3RSSDeltaKB = readRSSKB() - before

	fmt.Fprintf(os.Stderr, "benchoffline: mmap benchmark, v4 mapped load\n")
	debug.FreeOSMemory()
	before = readRSSKB()
	start = time.Now()
	mappedEng, err := cubelsi.LoadFile(v4Path, cubelsi.WithMapped())
	if err != nil {
		fatal(err)
	}
	rep.MappedLoadMS = float64(time.Since(start).Nanoseconds()) / 1e6
	debug.FreeOSMemory()
	rep.MapRSSDeltaKB = readRSSKB() - before
	if rep.MappedLoadMS > 0 {
		rep.Speedup = rep.V3DecodeMS / rep.MappedLoadMS
	}

	rep.RankParity = true
	for _, t := range []string{tags[0], tags[n/2], tags[n-1]} {
		a, err := heapEng.RelatedTags(t, 10)
		if err != nil {
			fatal(err)
		}
		b, err := mappedEng.RelatedTags(t, 10)
		if err != nil {
			fatal(err)
		}
		if len(a) != len(b) {
			rep.RankParity = false
			break
		}
		for i := range a {
			if a[i] != b[i] {
				rep.RankParity = false
			}
		}
	}
	if !rep.RankParity {
		// Identical rankings across load paths are the product, so a
		// divergence fails loudly.
		fatal(fmt.Errorf("mmap benchmark: mapped and heap-decoded engines rank differently"))
	}
	if err := mappedEng.Close(); err != nil {
		fatal(err)
	}
	return rep
}

// p99 returns the 99th-percentile of the samples (same nearest-rank
// convention as summarize, in the samples' own unit).
func p99(samples []float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(0.99*float64(len(sorted)-1))]
}

// readRSSKB returns the process's resident set size in kB from
// /proc/self/status (0 where unavailable — the bench targets linux).
func readRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}
