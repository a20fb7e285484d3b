package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro"
	"repro/internal/eval"
)

// The output oracle. Before any latency is measured, every distinct
// request of the pool is replayed over HTTP and its answer compared —
// resource order and scores, exactly — with the in-process engine
// loaded from the same model file with the same serving options. The
// verified body then becomes the byte-for-byte expectation of every
// repeat of that request under load.

type oracleResult struct {
	checked, mismatches int
	firstErr            error
	// ndcg10 is the mean NDCG@10 (the paper's Eq. 24) of the HTTP /search
	// answers to the evaluation queries against datagen's graded
	// relevance — the gold standard, never our own first stage.
	ndcg10 float64
}

// verifyPool fills in request.want for the whole pool.
func verifyPool(addr string, in *inputs, eng *cubelsi.Engine) (*oracleResult, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()

	res := &oracleResult{}
	mismatch := func(req *request, format string, args ...any) {
		res.mismatches++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("oracle: %s %q: %s", classNames[req.class], firstLine(req.wire), fmt.Sprintf(format, args...))
		}
	}
	for class := range in.pool {
		for i := range in.pool[class] {
			req := &in.pool[class][i]
			res.checked++
			status, body, err := c.roundTrip(req.wire, 30*time.Second)
			if err != nil {
				return nil, fmt.Errorf("oracle: %s: %w", firstLine(req.wire), err)
			}
			req.want = slices.Clone(body)
			if status != http.StatusOK {
				mismatch(req, "status %d: %s", status, body)
				continue
			}
			if err := checkAnswer(req, body, eng); err != nil {
				mismatch(req, "%v", err)
			}
		}
	}

	// Quality, from the answers just verified.
	all := make([]int, in.corpus.Clean.Resources.Len())
	for qi, q := range in.queries {
		var got struct {
			Results []cubelsi.Result `json:"results"`
		}
		if err := json.Unmarshal(in.pool[classSearch][qi].want, &got); err != nil {
			continue // already counted as a mismatch above
		}
		ranked := make([]int, 0, len(got.Results))
		for _, r := range got.Results {
			id, _ := in.corpus.Clean.Resources.Lookup(r.Resource)
			ranked = append(ranked, in.corpus.Relevance(q, id))
		}
		for r := range all {
			all[r] = in.corpus.Relevance(q, r)
		}
		res.ndcg10 += eval.NDCGAtN(ranked, all, resultLimit)
	}
	res.ndcg10 /= float64(len(in.queries))
	return res, nil
}

// checkAnswer compares one HTTP answer with the in-process engine's.
func checkAnswer(req *request, body []byte, eng *cubelsi.Engine) error {
	switch req.class {
	case classRelated:
		var got struct {
			Related []cubelsi.RelatedTag `json:"related"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := eng.RelatedTags(req.tag, resultLimit)
		if err != nil {
			return err
		}
		if !slices.Equal(got.Related, want) {
			return fmt.Errorf("related tags differ: got %v want %v", got.Related, want)
		}
	case classBatch:
		var got struct {
			Batches [][]cubelsi.Result `json:"batches"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := eng.SearchBatch(req.queries)
		if err != nil {
			return err
		}
		if len(got.Batches) != len(want) {
			return fmt.Errorf("%d batches, want %d", len(got.Batches), len(want))
		}
		for i := range want {
			if !slices.Equal(got.Batches[i], want[i]) {
				return fmt.Errorf("batch %d differs: got %v want %v", i, got.Batches[i], want[i])
			}
		}
	default:
		var got struct {
			Results []cubelsi.Result `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if want := eng.Query(req.queries[0]); !slices.Equal(got.Results, want) {
			return fmt.Errorf("results differ: got %v want %v", got.Results, want)
		}
	}
	return nil
}

func firstLine(wire []byte) string {
	for i, b := range wire {
		if b == '\r' {
			return string(wire[:i])
		}
	}
	return string(wire)
}
