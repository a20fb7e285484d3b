package cubelsi

import (
	"sync"
	"testing"

	"repro/internal/race"
)

// TestConcurrentQueriesShareTheScratchPool runs shared and personalised
// Query plus SearchBatch from many goroutines across an engine and its
// WithRetrieval / WithANN derivations — snapshots that all hold the one
// *ir.Index and therefore the one pool of scan scratch — and requires
// every answer to equal the serial one. A scratch handed back dirty, or
// to two queries at once, shows here as a wrong score (and under -race
// as a report).
func TestConcurrentQueriesShareTheScratchPool(t *testing.T) {
	eng := tinyEngine(t)
	n := eng.Stats().Resources
	partial, err := eng.WithRetrieval("exact", n/4)
	if err != nil {
		t.Fatal(err)
	}
	concept, err := eng.WithRetrieval("concept", n/2)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := eng.WithANN(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*Engine{eng, partial, concept, ann}

	tags := eng.Tags()
	var queries []Query
	for i := range 24 {
		q := NewQuery([]string{tags[i%len(tags)], tags[(i*7+3)%len(tags)]}, WithLimit(i%5*3))
		if i%2 == 1 {
			q.User = eng.users[i%len(eng.users)]
		}
		queries = append(queries, q)
	}
	serial := make([][][]Result, len(engines))
	for ei, e := range engines {
		for _, q := range queries {
			serial[ei] = append(serial[ei], e.Query(q))
		}
	}

	const goroutines = 12
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ei := g % len(engines)
			e, want := engines[ei], serial[ei]
			for round := range 8 {
				if (g+round)%3 == 0 {
					got, err := e.SearchBatch(queries)
					if err != nil {
						t.Errorf("goroutine %d: SearchBatch: %v", g, err)
						return
					}
					for qi := range queries {
						if !equalResults(got[qi], want[qi]) {
							t.Errorf("goroutine %d engine %d batch query %d diverged from the serial answer", g, ei, qi)
							return
						}
					}
					continue
				}
				for qi, q := range queries {
					if !equalResults(e.Query(q), want[qi]) {
						t.Errorf("goroutine %d engine %d query %d diverged from the serial answer", g, ei, qi)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func equalResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryAllocationCeiling keeps the query path cheap: on the test
// corpus a limited Engine.Query, shared or personalised, stays within
// ten allocations — the concept and weight maps, the sorted terms and
// the result slice, and nothing per matched document — on the default
// engine, the concept source at C = 200 and the exact source below
// covering depth.
func TestQueryAllocationCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	eng := buildCorpus(t)
	concept, err := eng.WithRetrieval("concept", 200)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := eng.WithRetrieval("exact", eng.Stats().Resources/2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name string
		eng  *Engine
	}{{"default", eng}, {"concept C=200", concept}, {"exact C=n/2", partial}} {
		for _, tc := range []struct {
			name string
			q    Query
		}{
			{"shared", NewQuery([]string{"audio", "songs"}, WithLimit(3))},
			{"personalised", NewQuery([]string{"audio", "songs"}, WithLimit(3), WithUser("mua"))},
		} {
			if got := e.eng.Query(tc.q); len(got) != 3 {
				t.Fatalf("%s %s: want 3 results, got %v", e.name, tc.name, got)
			}
			if allocs := testing.AllocsPerRun(200, func() { e.eng.Query(tc.q) }); allocs > 10 {
				t.Errorf("%s %s Engine.Query allocates %.0f objects per call, ceiling 10", e.name, tc.name, allocs)
			}
		}
	}
}
