package cubelsi

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/datagen"
)

// The golden answer hashes below were computed on the parent of the
// change that made ir.Index's dense scan kernel the only scorer — a
// tree that accumulated shared queries into a map and full-sorted them,
// and re-derived every personalised or depth-limited score through
// Forward.Score — and have not been regenerated since. They pin every
// (resource, score-bits) pair of a fixed query grid, so a kernel change
// that moves one score by one ulp, reorders one tie or drops one result
// fails here without any reference implementation in the loop.
const (
	goldenAnswersRootCorpus = "3fa5c9e9000cc95255e996e19fc58e42495183090f26e125f64348755b14347c"
	goldenAnswersTinyCorpus = "8138c2bcdc2aa8713f92fc2a98f636d2c9481efbbf89bfc2b21eb58d53a299df"
)

// tinyCorpus is the datagen.Tiny() corpus as public-API input, with the
// build configuration the engine benchmarks use.
func tinyCorpus() ([]Assignment, Config) {
	corpus := datagen.Generate(datagen.Tiny())
	var assignments []Assignment
	for _, a := range corpus.Clean.Assignments() {
		assignments = append(assignments, Assignment{
			User:     corpus.Clean.Users.Name(a.User),
			Tag:      corpus.Clean.Tags.Name(a.Tag),
			Resource: corpus.Clean.Resources.Name(a.Resource),
		})
	}
	cfg := DefaultConfig()
	cfg.ReductionRatios = [3]float64{4, 1.5, 4}
	cfg.Concepts = corpus.Params.NumConcepts()
	cfg.MinSupport = 2
	cfg.Seed = 7
	return assignments, cfg
}

// tinyEngine builds tinyCorpus: 59 resources over 12 concepts, enough
// for partial depths and multi-concept queries the eight-resource root
// corpus cannot produce.
func tinyEngine(tb testing.TB) *Engine {
	tb.Helper()
	assignments, cfg := tinyCorpus()
	eng, err := Build(context.Background(), FromAssignments(assignments), WithConfig(cfg))
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// goldenGrid is the fixed query grid: up to 16 tags spread evenly over
// the vocabulary as single-tag queries, adjacent pairs and triples,
// concept-only queries and a miss, crossed with limits, thresholds,
// per-request rerank depths and users (none, known ones, an unknown
// one).
func goldenGrid(eng *Engine, users []string) []Query {
	tags := eng.Tags()
	if stride := (len(tags) + 15) / 16; stride > 1 {
		var spread []string
		for i := 0; i < len(tags); i += stride {
			spread = append(spread, tags[i])
		}
		tags = spread
	}
	var tagSets [][]string
	for i, t := range tags {
		tagSets = append(tagSets, []string{t})
		if i+1 < len(tags) {
			tagSets = append(tagSets, []string{t, tags[i+1]})
		}
		if i%5 == 0 && i+7 < len(tags) {
			tagSets = append(tagSets, []string{t, tags[i+3], tags[i+7], t})
		}
	}
	tagSets = append(tagSets, []string{"nosuchtag"}, nil)
	k := eng.Stats().Concepts
	n := eng.Stats().Resources
	var out []Query
	for si, ts := range tagSets {
		for _, limit := range []int{0, 1, 3, n + 5} {
			for _, min := range []float64{0, 0.05, 0.4, -1} {
				for _, rerank := range []int{0, 1, 3, n} {
					for _, user := range append([]string{"", "nobody-ever"}, users...) {
						q := NewQuery(ts, WithLimit(limit), WithMinScore(min), WithRerank(rerank), WithUser(user))
						if ts == nil || si%4 == 0 {
							q.Concepts = []int{si % k, (si + 1) % k, si % k}
						}
						out = append(out, q)
					}
				}
			}
		}
	}
	return out
}

// hashAnswers folds every answer of the grid, on the engine and on its
// retrieval-configured derivations, into one SHA-256: per query the
// result count, then each resource name and the IEEE-754 bits of its
// score.
func hashAnswers(t *testing.T, h hash.Hash, eng *Engine, users []string) int {
	t.Helper()
	n := eng.Stats().Resources
	engines := []*Engine{eng}
	for _, cfg := range []struct {
		source string
		depth  int
	}{{"exact", 0}, {"exact", 3}, {"exact", n}, {"concept", 0}, {"concept", 2}, {"concept", n / 2}} {
		d, err := eng.WithRetrieval(cfg.source, cfg.depth)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, d)
	}
	grid := goldenGrid(eng, users)
	var b [8]byte
	answers := 0
	for _, e := range engines {
		for _, q := range grid {
			res := e.Query(q)
			binary.LittleEndian.PutUint64(b[:], uint64(len(res)))
			h.Write(b[:])
			for _, r := range res {
				h.Write([]byte(r.Resource))
				h.Write([]byte{0})
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Score))
				h.Write(b[:])
			}
			answers++
		}
	}
	return answers
}

// TestGoldenAnswerHash replays the grid against hashes pinned from the
// parent of the single-kernel change.
func TestGoldenAnswerHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The golden bits assume no FMA contraction; other architectures
		// may fuse multiply-adds and legitimately differ in low bits.
		t.Skipf("golden float bits recorded on amd64, running on %s", runtime.GOARCH)
	}
	cases := []struct {
		name  string
		eng   *Engine
		users []string
		want  string
	}{
		{"root corpus", buildCorpus(t), []string{"mua", "cub", "cuf"}, goldenAnswersRootCorpus},
		{"tiny corpus", tinyEngine(t), nil, goldenAnswersTinyCorpus},
	}
	for _, tc := range cases {
		if !tc.eng.UserFactors() {
			t.Fatalf("%s: engine carries no user factors; the personalised half of the grid would be vacuous", tc.name)
		}
		users := tc.users
		if users == nil {
			users = tc.eng.users[:3]
		}
		h := sha256.New()
		answers := hashAnswers(t, h, tc.eng, users)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%s: answer hash over %d queries = %s, want golden %s", tc.name, answers, got, tc.want)
		}
	}
}
