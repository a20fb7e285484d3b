package cubelsi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tagging"
	"repro/internal/tucker"
)

// Delta is a batch of assignment changes applied to an Index: new
// assignments to fold in and existing ones to retract. Both sides use
// set semantics — adding a triple that is already present, or removing
// one that is not, is a no-op rather than an error.
type Delta struct {
	Add    []Assignment `json:"add,omitempty"`
	Remove []Assignment `json:"remove,omitempty"`
}

// UpdateReport describes what one Index.Apply actually did: how much of
// the delta took effect, how hard the warm-started rebuild had to work
// (sweeps, fit), how much of the model moved (re-embedded and
// re-clustered tags), and where the wall-clock went.
type UpdateReport struct {
	// Version is the version of the engine snapshot the update published
	// (unchanged when the delta was a no-op).
	Version uint64 `json:"version"`
	// AddedAssignments and RemovedAssignments count the delta entries
	// that actually changed the corpus (duplicates and misses excluded).
	AddedAssignments   int `json:"added_assignments"`
	RemovedAssignments int `json:"removed_assignments"`

	// Sweeps is the number of ALS sweeps the warm-started decomposition
	// ran — the headline cost a warm start cuts versus a cold rebuild —
	// and Fit the fit it reached.
	Sweeps int     `json:"sweeps"`
	Fit    float64 `json:"fit"`

	// NewTags entered the vocabulary with this delta; MovedTags moved
	// beyond the re-cluster threshold (after Procrustes alignment);
	// ReclusteredTags were assigned a (possibly identical) concept anew.
	// FullRecluster reports the fallback to a complete k-means pass.
	NewTags         int  `json:"new_tags"`
	MovedTags       int  `json:"moved_tags"`
	ReclusteredTags int  `json:"reclustered_tags"`
	FullRecluster   bool `json:"full_recluster"`

	// Per-stage wall clock of the rebuild, in milliseconds.
	TensorMS    float64 `json:"tensor_ms"`
	DecomposeMS float64 `json:"decompose_ms"`
	EmbedMS     float64 `json:"embed_ms"`
	ClusterMS   float64 `json:"cluster_ms"`
	IndexMS     float64 `json:"index_ms"`
	TotalMS     float64 `json:"total_ms"`
}

// Index is the mutable handle of the engine lifecycle: it owns the
// assignment log of one corpus and publishes immutable, versioned
// Engine snapshots. Readers call Snapshot and query it freely — the
// snapshot never changes underneath them. Writers call Apply, which
// folds an assignment delta into the corpus, rebuilds warm-started from
// the previous factors, and atomically swaps the new snapshot in.
//
// Apply serializes writers internally; Snapshot is lock-free. An Index
// is safe for any number of concurrent readers and writers.
type Index struct {
	mu       sync.Mutex // serializes Apply
	settings buildSettings
	log      *assignmentLog
	pipe     *core.Pipeline
	cur      atomic.Pointer[Engine]
}

// NewIndex builds the initial engine snapshot over the source corpus
// and returns the updatable handle that owns it. Options are the same
// as Build, plus the lifecycle-only WithPreviousModel, which warm-starts
// this initial build from an earlier engine (e.g. yesterday's model
// file).
func NewIndex(ctx context.Context, src Source, opts ...BuildOption) (*Index, error) {
	settings := buildSettings{cfg: DefaultConfig()}
	for _, o := range opts {
		o(&settings)
	}
	if settings.err != nil {
		return nil, settings.err
	}
	raw, err := src.dataset()
	if err != nil {
		return nil, err
	}
	idx := &Index{settings: settings, log: newAssignmentLog(raw, settings.cfg.Lowercase)}

	if prev := settings.prevModel; prev != nil {
		ds, err := cleanDataset(raw, settings.cfg)
		if err != nil {
			return nil, err
		}
		pst, err := prevStateFromEngine(prev)
		if err != nil {
			return nil, err
		}
		p, _, err := core.Update(ctx, ds, pst, coreOptions(idx.settings, ds.Stats()), core.UpdateOptions{})
		if err != nil {
			return nil, fmt.Errorf("cubelsi: warm-start build: %w", err)
		}
		idx.pipe = p
		idx.cur.Store(engineFromPipeline(settings.cfg, p, prev.version+1))
		return idx, nil
	}

	eng, p, err := buildPipeline(ctx, FromDataset(raw), settings)
	if err != nil {
		return nil, err
	}
	idx.pipe = p
	idx.cur.Store(eng)
	return idx, nil
}

// Snapshot returns the current engine snapshot — an atomic pointer
// load, safe to call from any goroutine at any rate. The returned
// engine is immutable; hold on to it for as long as a consistent view
// is needed.
func (idx *Index) Snapshot() *Engine { return idx.cur.Load() }

// TagSupport reports, for every tag with at least one live assignment,
// how many assignments currently carry it (keys use the same tag
// case-folding the cleaning pass applies). It is the per-tag support
// the streaming drift signal measures pending changes against; the
// scan is O(live corpus) under the Apply lock.
func (idx *Index) TagSupport() map[string]int {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	support := make(map[string]int)
	for a, alive := range idx.log.live {
		if alive {
			support[a.Tag]++
		}
	}
	return support
}

// Apply folds an assignment delta into the corpus and publishes a new
// engine snapshot: the tensor is rebuilt from the updated assignment
// log, the ALS decomposition warm-starts from the previous factor
// matrices (skipping the HOSVD initialisation of a cold build; the sweep
// count is reported in UpdateReport.Sweeps and on the benchmark corpora
// is the MaxSweeps cap either way — ROADMAP item 3), tag
// embedding rows are recomputed and compared — after Procrustes
// alignment — against the previous embedding, and only tags that moved
// beyond the threshold are re-clustered; everything else keeps its
// concept label. The new snapshot becomes visible to Snapshot callers
// atomically, with Version incremented by one.
//
// A delta with no effective changes (all adds present, all removes
// absent) returns a zero report for the current version without
// rebuilding. On error the corpus log is rolled back, so a failed Apply
// leaves the Index exactly as it was.
func (idx *Index) Apply(ctx context.Context, d Delta) (*UpdateReport, error) {
	idx.mu.Lock()
	defer idx.mu.Unlock()

	for _, a := range append(append([]Assignment(nil), d.Add...), d.Remove...) {
		if a.User == "" || a.Tag == "" || a.Resource == "" {
			return nil, fmt.Errorf("cubelsi: delta assignment with empty field: %+v", a)
		}
	}

	added, removed := idx.log.apply(d)
	prev := idx.cur.Load()
	if len(added) == 0 && len(removed) == 0 {
		return &UpdateReport{Version: prev.version}, nil
	}
	rollback := func() { idx.log.revert(added, removed) }

	ds, err := cleanDataset(idx.log.dataset(), idx.settings.cfg)
	if err != nil {
		rollback()
		return nil, err
	}
	pst := prevStateFromPipeline(idx.pipe)
	p, ust, err := core.Update(ctx, ds, pst, coreOptions(idx.settings, ds.Stats()), core.UpdateOptions{})
	if err != nil {
		rollback()
		return nil, fmt.Errorf("cubelsi: update: %w", err)
	}

	eng := engineFromPipeline(idx.settings.cfg, p, prev.version+1)
	idx.pipe = p
	idx.cur.Store(eng)
	// The update is committed; tombstones from this and earlier deltas
	// can now be dropped (rollback never reaches past this point).
	idx.log.compact()

	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return &UpdateReport{
		Version:            eng.version,
		AddedAssignments:   len(added),
		RemovedAssignments: len(removed),
		Sweeps:             ust.Sweeps,
		Fit:                ust.Fit,
		NewTags:            ust.NewTags,
		MovedTags:          ust.MovedTags,
		ReclusteredTags:    ust.ReclusteredTags,
		FullRecluster:      ust.FullRecluster,
		TensorMS:           ms(p.Times.Tensor),
		DecomposeMS:        ms(p.Times.Decompose),
		EmbedMS:            ms(p.Times.Embed),
		ClusterMS:          ms(p.Times.Cluster),
		IndexMS:            ms(p.Times.Index),
		TotalMS:            ms(p.Times.Total()),
	}, nil
}

// prevStateFromPipeline packages the last built pipeline as the warm
// state of the next incremental update.
func prevStateFromPipeline(p *core.Pipeline) *core.PrevState {
	return &core.PrevState{
		TagNames:      p.DS.Tags.Names(),
		ResourceNames: p.DS.Resources.Names(),
		Warm:          &tucker.WarmStart{Y2: p.Decomposition.Y2, Y3: p.Decomposition.Y3},
		Embedding:     p.Embedding,
		Assign:        p.Assign,
		K:             p.K,
	}
}

// prevStateFromEngine packages a built or loaded engine as warm state.
// It errors when the engine cannot warm-start anything: engines
// restored from pre-v3 model files carry no factor matrices.
func prevStateFromEngine(e *Engine) (*core.PrevState, error) {
	if e.warm == nil || e.warm.Y2 == nil || e.warm.Y3 == nil || e.emb == nil {
		return nil, errors.New("cubelsi: previous model carries no warm-start factors (saved before format v3?); rebuild it or drop WithPreviousModel")
	}
	return &core.PrevState{
		TagNames:      e.tags.Names(),
		ResourceNames: e.resources.Names(),
		Warm:          e.warm,
		Embedding:     e.emb,
		Assign:        e.assign,
		K:             e.k,
	}, nil
}

// assignmentLog is the Index's corpus of record: the distinct
// assignment triples in first-insertion order, with O(1) membership,
// additions and retractions. Keeping the order stable keeps cleaning
// and id assignment deterministic across updates, which the warm-start
// alignment and the golden parity tests rely on.
//
// Triples are stored under the same tag case-folding the cleaning pass
// applies, so delta membership works on the names the engine actually
// exposes: with Lowercase on, removing {"u", "jazz", "r"} retracts an
// assignment that arrived as {"u", "Jazz", "r"}, and re-adding the
// other casing of a live triple is the no-op a client expects.
type assignmentLog struct {
	lowercase bool
	order     []Assignment
	live      map[Assignment]bool
	// dead counts retracted entries still held as tombstones (they keep
	// their position for re-adds). When they outnumber the live entries
	// the log compacts, so memory and per-Apply work track the live
	// corpus, not everything ever seen.
	dead int
}

// fold normalizes a triple to its log key, mirroring tagging.Clean's
// tag case-folding (users and resources are never folded).
func (l *assignmentLog) fold(a Assignment) Assignment {
	if l.lowercase {
		a.Tag = strings.ToLower(a.Tag)
	}
	return a
}

// newAssignmentLog captures a raw (uncleaned) dataset's assignments.
func newAssignmentLog(raw *tagging.Dataset, lowercase bool) *assignmentLog {
	l := &assignmentLog{lowercase: lowercase, live: make(map[Assignment]bool)}
	for _, a := range raw.Assignments() {
		t := l.fold(Assignment{
			User:     raw.Users.Name(a.User),
			Tag:      raw.Tags.Name(a.Tag),
			Resource: raw.Resources.Name(a.Resource),
		})
		if _, seen := l.live[t]; !seen {
			l.order = append(l.order, t)
		}
		l.live[t] = true
	}
	return l
}

// apply folds a delta in and returns the entries that actually changed
// state (for rollback and reporting). Removals are processed first so a
// triple both removed and re-added in one delta ends up present — and
// when it was already present, the pair cancels to a net no-op instead
// of counting as one removal plus one addition (which would trigger a
// pointless rebuild).
func (l *assignmentLog) apply(d Delta) (added, removed []Assignment) {
	removedSet := make(map[Assignment]bool)
	for _, a := range d.Remove {
		a = l.fold(a)
		if l.live[a] {
			l.live[a] = false
			l.dead++
			removedSet[a] = true
		}
	}
	for _, a := range d.Add {
		a = l.fold(a)
		alive, seen := l.live[a]
		if alive {
			continue
		}
		if removedSet[a] {
			// Removed earlier in this same delta: the add cancels it.
			delete(removedSet, a)
			l.live[a] = true
			l.dead--
			continue
		}
		if !seen {
			// Retracted entries (while retained) keep their original
			// position on re-add; new triples append.
			l.order = append(l.order, a)
		} else {
			l.dead--
		}
		l.live[a] = true
		added = append(added, a)
	}
	// removedSet is a map, so collect then sort: rollback and the
	// update report see the same removal order on every run.
	for a := range removedSet {
		removed = append(removed, a)
	}
	sort.Slice(removed, func(i, j int) bool {
		x, y := removed[i], removed[j]
		if x.User != y.User {
			return x.User < y.User
		}
		if x.Tag != y.Tag {
			return x.Tag < y.Tag
		}
		return x.Resource < y.Resource
	})
	return added, removed
}

// compact drops tombstones once they outnumber live entries. Live
// entries keep their relative order, so the materialized dataset (and
// therefore cleaning, id assignment, and the fingerprint) is unchanged;
// only the position a dropped triple would regain on a future re-add is
// forfeited (it re-appends at the end instead). Called outside apply so
// Apply's rollback always targets an uncompacted log.
func (l *assignmentLog) compact() {
	if l.dead <= len(l.order)-l.dead {
		return
	}
	kept := l.order[:0]
	for _, a := range l.order {
		if l.live[a] {
			kept = append(kept, a)
		} else {
			delete(l.live, a)
		}
	}
	l.order = kept
	l.dead = 0
}

// revert undoes a previous apply.
func (l *assignmentLog) revert(added, removed []Assignment) {
	for _, a := range added {
		l.live[a] = false
		l.dead++
	}
	for _, a := range removed {
		l.live[a] = true
		l.dead--
	}
}

// dataset materializes the live assignments as a raw dataset in log
// order.
func (l *assignmentLog) dataset() *tagging.Dataset {
	ds := tagging.NewDataset()
	for _, a := range l.order {
		if l.live[a] {
			ds.Add(a.User, a.Tag, a.Resource)
		}
	}
	return ds
}
