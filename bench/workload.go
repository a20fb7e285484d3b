package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"repro"
	"repro/internal/datagen"
	"repro/internal/tagging"
)

// workload is one set of inputs plus the way they are served. The
// corpus, the held-out delta and the request pool are a fixed part of
// the workload, not a function of -seed: across datagen seeds the same
// Params give builds 3.1–4.2 s apart and 11 or 12 concepts, across
// deltas of one corpus the warm update converges in 5.2–7.6 s, and
// across draws of sixteen 8-query batches the batch p50 moves 15 % —
// each would drown the bounds. -seed draws what a run is free to vary:
// the sequence in which the two clients send the pool's requests.
type workload struct {
	name, why string
	corpus    datagen.Params
	ratio     float64
	// Serving configuration of the read server, mirrored one to one by
	// the in-process engine the oracle compares against.
	mmap, ann bool
	retrieve  string
	rerank    int
}

func wideCorpus() datagen.Params {
	p := datagen.BibsonomyLike() // the noise profile; the shape is overridden
	p.Name = "wide"
	p.Users, p.Resources, p.Assignments = 400, 2800, 63000
	p.Categories, p.ConceptsPerCategory, p.WordsPerConcept = 8, 8, 12
	return p
}

var workloads = []workload{
	{
		name:   "wide_exact",
		why:    "long postings under the default exact scan: retrieval and Gram-side optimisations must show here",
		corpus: wideCorpus(), ratio: 50,
	},
	{
		name:   "wide_sublinear",
		why:    "same model served -mmap -ann -retrieve concept -rerank 200: an exact-scan change predicts no change here",
		corpus: wideCorpus(), ratio: 50,
		mmap: true, ann: true, retrieve: "concept", rerank: 200,
	},
	{
		name:   "deep_core",
		why:    "small tensor, large core (ratio 20): eigensolve-bound build, HTTP-bound reads, the flush-to-visible target",
		corpus: datagen.LastFMLike(), ratio: 20,
	},
}

// smokeWorkloads are the same three serving configurations over the
// Tiny corpus, for the harness's own tests.
func smokeWorkloads() []workload {
	out := append([]workload(nil), workloads...)
	for i := range out {
		out[i].corpus, out[i].ratio = datagen.Tiny(), 8
	}
	return out
}

func findWorkload(all []workload, name string) (workload, bool) {
	for _, w := range all {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serveFlags are the read server's serving flags.
func (w workload) serveFlags() []string {
	var f []string
	if w.mmap {
		f = append(f, "-mmap")
	}
	if w.ann {
		f = append(f, "-ann")
	}
	if w.retrieve != "" {
		f = append(f, "-retrieve", w.retrieve)
	}
	if w.rerank > 0 {
		f = append(f, "-rerank", strconv.Itoa(w.rerank))
	}
	return f
}

// loadEngine opens a model file in-process the way the read server
// does (cubelsiserve's loadModel), for the oracle and the cubelsi.*
// layer metrics.
func (w workload) loadEngine(path string) (*cubelsi.Engine, error) {
	var opts []cubelsi.LoadOption
	if w.mmap {
		opts = append(opts, cubelsi.WithMapped())
	}
	eng, err := cubelsi.LoadFile(path, opts...)
	if err != nil {
		return nil, err
	}
	if w.ann {
		if eng, err = eng.WithANN(0, 0); err != nil {
			return nil, err
		}
	}
	if w.retrieve != "" || w.rerank > 0 {
		if eng, err = eng.WithRetrieval(w.retrieve, w.rerank); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

const (
	numQueries   = 128 // the paper's query workload size
	maxQueryTags = 3
	numBatches   = 16
	batchSize    = 8
	resultLimit  = 10
	deltaShare   = 0.01
	maxDelta     = 1000 // stays inside the default -stream-queue of 4096
)

// request is one entry of the request pool: the bytes a client writes,
// and — once the oracle has verified it — the body it must get back.
type request struct {
	class uint8
	wire  []byte
	// What the request asks, for the in-process oracle.
	queries []cubelsi.Query // one, or batchSize for classBatch
	tag     string          // classRelated
	want    []byte
}

// inputs is everything one run feeds the system.
type inputs struct {
	corpus *datagen.Corpus
	// base is the raw corpus minus delta; base ∪ delta is corpus.Raw.
	base    *tagging.Dataset
	delta   []cubelsi.StreamRecord
	queries []datagen.Query
	// pool[class] are the distinct requests the clients draw from.
	pool [numClasses][]request
	seed int64
}

// makeInputs derives a run's inputs. Same (workload, seed) → same
// inputs, byte for byte.
func makeInputs(w workload, seed int64) *inputs {
	c := datagen.Generate(w.corpus)
	in := &inputs{corpus: c, seed: seed}
	// The evaluation queries belong to the corpus, so quality_ndcg10
	// repeats exactly across seeds.
	in.queries = c.MakeQueries(numQueries, maxQueryTags, w.corpus.Seed+1)

	// Hold out 1 % of the raw assignments as the write phase's delta.
	raw := c.Raw.Assignments()
	nDelta := min(max(int(deltaShare*float64(len(raw))), 1), maxDelta)
	held := make(map[int]bool, nDelta)
	for _, i := range rand.New(rand.NewSource(w.corpus.Seed + 2)).Perm(len(raw))[:nDelta] {
		held[i] = true
	}

	in.base = tagging.NewDataset()
	for i, a := range raw {
		u, t, r := c.Raw.Users.Name(a.User), c.Raw.Tags.Name(a.Tag), c.Raw.Resources.Name(a.Resource)
		if held[i] {
			in.delta = append(in.delta, cubelsi.StreamRecord{User: u, Tag: t, Resource: r})
		} else {
			in.base.Add(u, t, r)
		}
	}

	rng := rand.New(rand.NewSource(w.corpus.Seed + 3))
	users := c.Clean.Users.Names()
	for _, q := range in.queries {
		one := cubelsi.NewQuery(q.Tags, cubelsi.WithLimit(resultLimit))
		target := "/search?q=" + url.QueryEscape(strings.Join(q.Tags, ",")) + "&n=" + strconv.Itoa(resultLimit)
		in.pool[classSearch] = append(in.pool[classSearch], request{
			class: classSearch, wire: getWire(target), queries: []cubelsi.Query{one},
		})
		personal := one
		personal.User = users[rng.Intn(len(users))]
		in.pool[classUser] = append(in.pool[classUser], request{
			class: classUser, wire: getWire(target + "&user=" + url.QueryEscape(personal.User)),
			queries: []cubelsi.Query{personal},
		})
		in.pool[classRelated] = append(in.pool[classRelated], request{
			class: classRelated, tag: q.Tags[0],
			wire: getWire("/related?tag=" + url.QueryEscape(q.Tags[0]) + "&n=" + strconv.Itoa(resultLimit)),
		})
	}
	for range numBatches {
		var body struct {
			Queries []cubelsi.Query `json:"queries"`
		}
		for range batchSize {
			body.Queries = append(body.Queries, in.pool[classSearch][rng.Intn(numQueries)].queries[0])
		}
		payload, err := json.Marshal(body)
		if err != nil {
			panic(err) // strings and ints only
		}
		in.pool[classBatch] = append(in.pool[classBatch], request{
			class: classBatch, wire: postWire("/search", payload), queries: body.Queries,
		})
	}
	return in
}

func getWire(target string) []byte {
	return []byte("GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

func postWire(target string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", target, len(body))
	return append([]byte(head), body...)
}

// requestStream is one client's seeded draw over the pool, in the
// read mix by request count: 50 % shared search, 20 % personalized
// search, 20 % related, 10 % batch.
type requestStream struct {
	rng  *rand.Rand
	pool *[numClasses][]request
}

func (in *inputs) stream(client int) *requestStream {
	return &requestStream{rng: rand.New(rand.NewSource(in.seed*1000003 + int64(client) + 1)), pool: &in.pool}
}

func (s *requestStream) next() *request {
	var class int
	switch p := s.rng.Intn(100); {
	case p < 50:
		class = classSearch
	case p < 70:
		class = classUser
	case p < 90:
		class = classRelated
	default:
		class = classBatch
	}
	return &s.pool[class][s.rng.Intn(len(s.pool[class]))]
}

// deltaNDJSON is the delta as the POST /stream body.
func (in *inputs) deltaNDJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range in.delta {
		if err := enc.Encode(rec); err != nil {
			panic(err) // strings only
		}
	}
	return buf.Bytes()
}
