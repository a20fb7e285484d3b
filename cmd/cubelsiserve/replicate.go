package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/replicate"
)

// enableWriter turns a corpus-backed server into the fleet's writer: it
// spools every published snapshot (the initial build and each /stream
// flush) to a versioned model file, serves the bytes on GET /model,
// and — when notify targets are configured — broadcasts
// {version, sha256} announcements so replicas pull promptly instead of
// waiting for their anti-entropy poll.
func (s *server) enableWriter(spool string, targets []string) {
	s.spool = spool
	s.pub = &replicate.Publisher{}
	if len(targets) > 0 {
		s.notifier = &replicate.Notifier{Targets: targets}
	}
	s.mux.HandleFunc("GET /model", s.pub.ServeModel)
}

// publishSnapshot saves an engine snapshot into the spool and announces
// it. Publishing is best-effort from the caller's point of view — a
// full disk or a dead replica must not fail the update or flush that
// produced the snapshot — so errors are logged, surfaced in /stats via
// the publisher's current version lagging, and retried implicitly by
// the next publish.
func (s *server) publishSnapshot(eng *cubelsi.Engine) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if cur, ok := s.pub.Current(); ok && cur.Version >= eng.Version() {
		return // already published (or something newer is out)
	}
	path := filepath.Join(s.spool, fmt.Sprintf("model-v%d.clsi", eng.Version()))
	// Replicas serve ?user= from the spooled file, so it carries the user
	// factors whenever the snapshot has them.
	var opts []cubelsi.SaveOption
	if eng.UserFactors() {
		opts = append(opts, cubelsi.WithUserFactors())
	}
	if err := eng.SaveFile(path, opts...); err != nil {
		fmt.Fprintf(os.Stderr, "cubelsiserve: spool snapshot v%d: %v\n", eng.Version(), err)
		return
	}
	pub, err := s.pub.Publish(eng.Version(), path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cubelsiserve: publish snapshot v%d: %v\n", eng.Version(), err)
		return
	}
	if s.notifier != nil {
		// Announcements ride a background goroutine: a slow or dead
		// replica retries on its own poll; the writer never blocks on it.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for _, err := range s.notifier.Broadcast(ctx, replicate.Announcement{
				Version:     pub.Version,
				Fingerprint: pub.Fingerprint,
			}) {
				fmt.Fprintf(os.Stderr, "cubelsiserve: %v\n", err)
			}
		}()
	}
}

// enableReplica turns a model-backed server into a read-only replica of
// a writer: POST /notify feeds announcements into the pull state
// machine, and every verified pull hot-swaps the downloaded snapshot in
// exactly like a POST /reload would — same load options, same atomic
// swap — with the extra guards the replication plane adds (fingerprint
// verification, monotonic version). Call run (via the puller) after the
// server starts listening.
func (s *server) enableReplica(writer, spool string, poll time.Duration) {
	s.replicaOf = writer
	s.replicaPoll = poll
	s.puller = &replicate.Puller{
		Writer: writer,
		Spool:  spool,
		Current: func() uint64 {
			if eng := s.engine(); eng != nil {
				return eng.Version()
			}
			return 0
		},
		Swap: func(path string, version uint64) error {
			eng, err := s.loadModel(path)
			if err != nil {
				return err
			}
			if eng.Version() != version {
				eng.Close()
				return fmt.Errorf("model file carries version %d, writer announced %d", eng.Version(), version)
			}
			s.mu.Lock()
			s.modelPath = path
			s.eng.Store(eng)
			s.mu.Unlock()
			return nil
		},
	}
	s.mux.HandleFunc("POST /notify", s.handleNotify)
}

// handleNotify accepts a writer announcement and acknowledges before
// the pull happens: 202 means "recorded, converging", and the actual
// transfer runs on the puller's own goroutine so a slow pull never
// holds the writer's notify fan-out open.
func (s *server) handleNotify(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSearchBody)
	var a replicate.Announcement
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		writeBodyError(w, err)
		return
	}
	if a.Version == 0 {
		writeError(w, http.StatusBadRequest, "announcement version must be positive")
		return
	}
	s.puller.Notify(a)
	writeJSON(w, http.StatusAccepted, map[string]any{"status": "accepted", "version": a.Version})
}

// replicationStats is the "replication" section of /stats: the writer
// reports what it has published and to whom; a replica reports how far
// behind the writer it is (version_skew = writer_version −
// model_version, 0 when converged) and where its pull state machine
// stands.
type replicationStats struct {
	Role string `json:"role"` // writer | replica

	// Writer fields.
	PublishedVersion     uint64   `json:"published_version,omitempty"`
	PublishedFingerprint string   `json:"published_fingerprint,omitempty"`
	NotifyTargets        []string `json:"notify_targets,omitempty"`

	// Replica fields.
	Writer        string `json:"writer,omitempty"`
	WriterVersion uint64 `json:"writer_version,omitempty"`
	VersionSkew   int64  `json:"version_skew"`
	State         string `json:"state,omitempty"`
	Pulls         uint64 `json:"pulls,omitempty"`
	Failures      uint64 `json:"failures,omitempty"`
	LastError     string `json:"last_error,omitempty"`
}

// replicationSection builds the /stats replication block, nil when the
// server is neither writer nor replica.
func (s *server) replicationSection(serving uint64) *replicationStats {
	switch {
	case s.pub != nil:
		rs := &replicationStats{Role: "writer"}
		if cur, ok := s.pub.Current(); ok {
			rs.PublishedVersion = cur.Version
			rs.PublishedFingerprint = cur.Fingerprint
		}
		if s.notifier != nil {
			rs.NotifyTargets = s.notifier.Targets
		}
		return rs
	case s.puller != nil:
		st := s.puller.Status()
		rs := &replicationStats{
			Role:          "replica",
			Writer:        s.replicaOf,
			WriterVersion: st.WriterVersion,
			State:         string(st.State),
			Pulls:         st.Pulls,
			Failures:      st.Failures,
			LastError:     st.LastError,
		}
		if st.WriterVersion > serving {
			rs.VersionSkew = int64(st.WriterVersion - serving)
		}
		return rs
	default:
		return nil
	}
}
