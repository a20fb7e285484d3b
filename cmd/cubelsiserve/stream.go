package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro"
)

// maxStreamLine bounds one NDJSON record on POST /stream. The stream
// itself is unbounded — a firehose connection can run for hours — but a
// single assignment record has no business being this large.
const maxStreamLine = 1 << 20 // 1 MiB

// streamAck is the per-record acknowledgment: one JSON line per input
// line in firehose mode, and the summary's error detail in batch mode.
type streamAck struct {
	Line   int    `json:"line"`
	Status string `json:"status"` // accepted | duplicate | backpressure | error
	// Seq echoes the record's sequence number so a producer can match
	// acks to in-flight records without counting lines.
	Seq          uint64 `json:"seq,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// ModelVersion is set on the final "flushed" ack of a ?flush=1
	// firehose.
	ModelVersion uint64 `json:"model_version,omitempty"`
	Error        string `json:"error,omitempty"`
}

// streamSummary is the batch-mode response body.
type streamSummary struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	// RetryAfterMS is set on the 429 backpressure response alongside the
	// Retry-After header.
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	Error        string `json:"error,omitempty"`
	// ModelVersion is the serving version after a ?flush=1 request — the
	// version at which every accepted record above is visible — and
	// SourceFingerprint identifies the cleaned corpus that snapshot was
	// built from, so rollout tooling can check a fleet's lineage without
	// a follow-up /stats call.
	ModelVersion      uint64 `json:"model_version,omitempty"`
	SourceFingerprint string `json:"source_fingerprint,omitempty"`
	// UpdateReport is the forced flush's report (its keys inline: version,
	// added_assignments, sweeps, fit, …); absent when the flush found
	// nothing pending.
	*cubelsi.UpdateReport
}

// handleStream ingests an NDJSON delta log: one StreamRecord per line,
// micro-batched into the index under the configured flush policy.
//
// Batch mode (the default) reads the whole body and answers one
// summary; the first backpressured record stops reading and answers 429
// with a Retry-After header (everything before it was accepted — a
// resumed upload may redeliver it safely under client sequence
// numbers). ?flush=1 forces a synchronous flush after the last record —
// of everything pending, other producers' records included — and
// reports the resulting model version, source fingerprint and update
// report. A batch the corpus rejects answers 422 and is dropped.
//
// ?firehose=1 switches to a long-lived streaming exchange: each input
// line is answered immediately with its own JSON ack line (accepted,
// duplicate, backpressure + retry hint, or error), flushed to the
// client, so an at-least-once producer can keep a single chunked
// request open and pace itself off the acks. Invalid records are acked
// as errors without killing the connection.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.ing == nil {
		writeError(w, http.StatusConflict, "server has no streaming ingestor; start with -data")
		return
	}
	if s.notReady(w) {
		return
	}
	// A firehose connection legitimately outlives any server-wide
	// deadline; batch uploads of large delta logs can too.
	extendDeadline(w)

	firehose := r.URL.Query().Get("firehose") == "1"
	forceFlush := r.URL.Query().Get("flush") == "1"

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64*1024), maxStreamLine)

	var flusher http.Flusher
	if firehose {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ = w.(http.Flusher)
	}
	enc := json.NewEncoder(w)

	ack := func(a streamAck) bool { // firehose-only; returns false on a dead client
		if err := enc.Encode(a); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	summary := streamSummary{}
	line := 0
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue // blank lines between records are fine
		}
		line++
		var rec cubelsi.StreamRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			if firehose {
				if !ack(streamAck{Line: line, Status: "error", Error: fmt.Sprintf("bad record: %v", err)}) {
					return
				}
				continue
			}
			summary.Error = fmt.Sprintf("line %d: bad record: %v", line, err)
			writeJSON(w, http.StatusBadRequest, summary)
			return
		}

		status, err := s.ing.Offer(rec)
		if err != nil {
			if firehose {
				if !ack(streamAck{Line: line, Status: "error", Seq: rec.Seq, Error: err.Error()}) {
					return
				}
				continue
			}
			summary.Error = fmt.Sprintf("line %d: %v", line, err)
			writeJSON(w, http.StatusBadRequest, summary)
			return
		}
		switch status {
		case cubelsi.OfferAccepted:
			summary.Accepted++
		case cubelsi.OfferDuplicate:
			summary.Duplicates++
		case cubelsi.OfferBackpressure:
			retry := s.ing.RetryAfter()
			if firehose {
				// The producer owns pacing: ack the pushback, drop the
				// record (its retry redelivers it), keep the stream open.
				if !ack(streamAck{Line: line, Status: "backpressure", Seq: rec.Seq, RetryAfterMS: retry.Milliseconds()}) {
					return
				}
				continue
			}
			w.Header().Set("Retry-After", strconv.FormatInt(int64(retry/time.Second)+1, 10))
			summary.RetryAfterMS = retry.Milliseconds()
			summary.Error = fmt.Sprintf("line %d: ingestion queue full", line)
			writeJSON(w, http.StatusTooManyRequests, summary)
			return
		}
		if firehose {
			if !ack(streamAck{Line: line, Status: status.String(), Seq: rec.Seq}) {
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		if firehose {
			ack(streamAck{Line: line + 1, Status: "error", Error: fmt.Sprintf("read stream: %v", err)})
			return
		}
		summary.Error = fmt.Sprintf("read stream: %v", err)
		writeJSON(w, http.StatusBadRequest, summary)
		return
	}

	if forceFlush {
		rep, err := s.ing.Flush(r.Context())
		if err != nil {
			if firehose {
				ack(streamAck{Line: line + 1, Status: "error", Error: fmt.Sprintf("flush: %v", err)})
				return
			}
			summary.Error = fmt.Sprintf("flush: %v", err)
			writeJSON(w, http.StatusUnprocessableEntity, summary)
			return
		}
		eng := s.engine()
		summary.ModelVersion = eng.Version()
		summary.SourceFingerprint = eng.SourceFingerprint()
		summary.UpdateReport = rep
	}
	if firehose {
		if summary.ModelVersion != 0 {
			ack(streamAck{Line: line + 1, Status: "flushed", ModelVersion: summary.ModelVersion})
		}
		return
	}
	writeJSON(w, http.StatusOK, summary)
}
