package main

import (
	"strings"
	"testing"
)

// TestCheckModeFlags: a flag the selected mode does not read is rejected
// by name, and every flag set the benchmark, the e2e fleet script and
// the manual's examples start a server with passes.
func TestCheckModeFlags(t *testing.T) {
	cases := []struct {
		name    string
		model   string
		data    string
		replica string
		set     []string
		reject  string // the flag named in the error; "" = accepted
	}{
		{name: "model with serving flags", model: "m.clsi",
			set: []string{"addr", "model", "mmap", "ann", "ann-nprobe", "ann-rerank", "retrieve", "rerank"}},
		{name: "data with build, stream and writer flags", data: "c.tsv",
			set: []string{"addr", "data", "concepts", "ratio", "min-support", "seed",
				"stream-flush-n", "stream-flush-interval", "stream-flush-drift", "stream-queue", "stream-idem-window",
				"spool", "notify"}},
		{name: "replica with warm seed and serving flags", replica: "http://w", model: "m.clsi",
			set: []string{"addr", "replica-of", "replica-poll", "spool", "model", "mmap", "ann", "retrieve", "rerank"}},
		{name: "data ignores retrieval", data: "c.tsv",
			set: []string{"data", "retrieve", "rerank"}, reject: "retrieve"},
		{name: "data ignores mmap", data: "c.tsv", set: []string{"data", "mmap"}, reject: "mmap"},
		{name: "data ignores ann", data: "c.tsv", set: []string{"data", "ann-nprobe"}, reject: "ann-nprobe"},
		{name: "model ignores data", model: "m.clsi", data: "c.tsv", set: []string{"model", "data"}, reject: "data"},
		{name: "model ignores spool", model: "m.clsi", set: []string{"model", "spool"}, reject: "spool"},
		{name: "model ignores notify", model: "m.clsi", set: []string{"model", "notify"}, reject: "notify"},
		{name: "model ignores build flags", model: "m.clsi", set: []string{"model", "ratio"}, reject: "ratio"},
		{name: "model ignores stream flags", model: "m.clsi", set: []string{"model", "stream-queue"}, reject: "stream-queue"},
		{name: "replica ignores data", replica: "http://w", data: "c.tsv",
			set: []string{"replica-of", "data"}, reject: "data"},
		{name: "replica ignores build flags", replica: "http://w", set: []string{"replica-of", "seed"}, reject: "seed"},
		{name: "replica ignores stream flags", replica: "http://w",
			set: []string{"replica-of", "stream-flush-n"}, reject: "stream-flush-n"},
		{name: "replica ignores notify", replica: "http://w", set: []string{"replica-of", "notify"}, reject: "notify"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mode := serveMode(tc.model, tc.data, tc.replica)
			err := checkModeFlags(mode, tc.set)
			switch {
			case tc.reject == "" && err != nil:
				t.Fatalf("%s mode rejected %v: %v", mode, tc.set, err)
			case tc.reject != "" && (err == nil || !strings.Contains(err.Error(), "-"+tc.reject+" ")):
				t.Fatalf("%s mode with %v: err = %v, want -%s rejected", mode, tc.set, err, tc.reject)
			}
		})
	}
	if mode := serveMode("", "", ""); mode != "" {
		t.Fatalf("no mode flag selected %q", mode)
	}
}
