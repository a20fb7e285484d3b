package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestTracerSelfTimeAndCoverage(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	// build [0,100) with children tensor [0,10) and decompose [10,95);
	// decompose has a grandchild unfold [20,50).
	at := func(name string, parent int, start, end int64) int {
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, StartNS: start, EndNS: end})
		return len(tr.spans)
	}
	build := at("build", 0, 0, 100)
	at("tensor", build, 0, 10)
	dec := at("decompose", build, 10, 95)
	at("unfold", dec, 20, 50)

	self := tr.selfTimes()
	for name, want := range map[string]time.Duration{"build": 5, "tensor": 10, "decompose": 55, "unfold": 30} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if cov := tr.coverage()["build"]; cov != 0.95 {
		t.Errorf("coverage of build = %v, want 0.95 (grandchildren must not count twice)", cov)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	tr := newTracer()
	root := tr.start(0, "query")
	ran := false
	if d := tr.in(root, "stage1", func() { ran = true; time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("in returned %v for a 1 ms call", d)
	}
	tr.end(root)
	if !ran || len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].dur() < time.Millisecond || tr.spans[0].dur() < tr.spans[1].dur() {
		t.Fatalf("spans: %+v", tr.spans)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "parent", "name", "start_ns", "end_ns"} {
		if _, ok := back[1][key]; !ok {
			t.Errorf("span file lacks %q: %s", key, data)
		}
	}

	var off *tracer
	id := off.start(0, "query")
	off.in(id, "stage1", func() {})
	off.end(id) // must not panic; records nothing
}
