package main

// The metric vocabulary. BENCHMARK.json at the repository root names
// the same metrics with the same units (a test holds the two together);
// every later performance claim in this repository is one of these
// names on one of the workload names.

type metricSpec struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Zero on
	// per-layer metrics, which explain and do not gate.
	bound float64
}

// endToEnd are the metrics a user of the system would see. failed_share
// is printed with them but travels in the result line's attempted/failed
// counts: the benchmark contract wants end-to-end metrics that are never
// zero, and a healthy run fails nothing.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"build_s", "s", "lower", 0.25},
	{"visible_s", "s", "lower", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p90_ms", "ms", "lower", 0.25},
	{"user_search_p50_ms", "ms", "lower", 0.25},
	{"related_p50_ms", "ms", "lower", 0.25},
	{"batch_p50_ms", "ms", "lower", 0.20},
	{"read_rps", "1/s", "higher", 0.20},
	{"server_rss_mb", "MB", "lower", 0.05},
	{"model_mb", "MB", "lower", 0.01},
	{"quality_ndcg10", "ratio", "higher", 0.006},
}

// perLayer are the traced run's metrics; the layer is the module name
// before the dot.
var perLayer = []metricSpec{
	{name: "tagging.load_ms", unit: "ms", better: "lower"},
	{name: "tagging.clean_ms", unit: "ms", better: "lower"},
	{name: "tagging.assignments", unit: "count", better: "lower"},
	{name: "tensor.build_ms", unit: "ms", better: "lower"},
	{name: "tensor.nnz", unit: "count", better: "lower"},
	{name: "tensor.unfold_mode1_ms", unit: "ms", better: "lower"},
	{name: "tensor.unfold_mode2_ms", unit: "ms", better: "lower"},
	{name: "tensor.unfold_mode3_ms", unit: "ms", better: "lower"},
	{name: "mat.left_svd_mode1_ms", unit: "ms", better: "lower"},
	{name: "mat.left_svd_mode2_ms", unit: "ms", better: "lower"},
	{name: "mat.left_svd_mode3_ms", unit: "ms", better: "lower"},
	{name: "tucker.decompose_ms", unit: "ms", better: "lower"},
	{name: "tucker.decompose_share", unit: "ratio", better: "lower"},
	{name: "tucker.sweeps", unit: "count", better: "lower"},
	{name: "tucker.fit", unit: "ratio", better: "higher"},
	{name: "embed.project_ms", unit: "ms", better: "lower"},
	{name: "embed.nearestk_us", unit: "us", better: "lower"},
	{name: "embed.ivf_nearestk_us", unit: "us", better: "lower"},
	{name: "embed.ivf_recall_at_10", unit: "ratio", better: "higher"},
	{name: "cluster.kmeans_ms", unit: "ms", better: "lower"},
	{name: "cluster.concepts", unit: "count", better: "higher"},
	{name: "ir.index_ms", unit: "ms", better: "lower"},
	{name: "ir.postings", unit: "count", better: "lower"},
	{name: "ir.map_concepts_us", unit: "us", better: "lower"},
	{name: "ir.query_weights_us", unit: "us", better: "lower"},
	{name: "ir.postings_scanned", unit: "count", better: "lower"},
	{name: "retrieve.stage1_us", unit: "us", better: "lower"},
	{name: "retrieve.stage2_us", unit: "us", better: "lower"},
	{name: "retrieve.search_us", unit: "us", better: "lower"},
	{name: "retrieve.candidates", unit: "count", better: "lower"},
	{name: "retrieve.recall_at_10", unit: "ratio", better: "higher"},
	{name: "codec.write_ms", unit: "ms", better: "lower"},
	{name: "codec.model_bytes", unit: "count", better: "lower"},
	{name: "codec.load_ms", unit: "ms", better: "lower"},
	{name: "codec.load_mapped_ms", unit: "ms", better: "lower"},
	{name: "core.update_ms", unit: "ms", better: "lower"},
	{name: "core.update_sweeps", unit: "count", better: "lower"},
	{name: "core.moved_tags", unit: "count", better: "lower"},
	{name: "cubelsi.query_us", unit: "us", better: "lower"},
	{name: "cubelsi.user_query_us", unit: "us", better: "lower"},
	{name: "cubelsi.batch8_us", unit: "us", better: "lower"},
	{name: "cubelsi.query_allocs", unit: "count", better: "lower"},
	{name: "cubelsi.query_alloc_bytes", unit: "count", better: "lower"},
	{name: "cubelsi.build_alloc_mb", unit: "MB", better: "lower"},
	{name: "cubelsi.build_peak_rss_mb", unit: "MB", better: "lower"},
	{name: "cubelsi.offer_us", unit: "us", better: "lower"},
	{name: "cubelsi.flush_ms", unit: "ms", better: "lower"},
	{name: "cubelsiserve.http_overhead_us", unit: "us", better: "lower"},
	{name: "cubelsiserve.load_ms", unit: "ms", better: "lower"},
	{name: "cubelsiserve.cpu_us_per_req", unit: "us", better: "lower"},
	{name: "cubelsiserve.resp_bytes", unit: "count", better: "lower"},
	{name: "cubelsiserve.stream_post_ms", unit: "ms", better: "lower"},
	{name: "cubelsiserve.search_during_flush_p50_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "host.steal_share_max", unit: "ratio", better: "lower"},
	{name: "host.windows_discarded", unit: "count", better: "lower"},
	{name: "host.retries", unit: "count", better: "lower"},
}
