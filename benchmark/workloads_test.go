package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// shortRun is a run length whose lists stay small: a few dozen closed-loop
// requests, a few hundred open-loop arrivals.
const shortRun = 0.03

func TestListsDependOnlyOnTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := w.list(7, shortRun)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.list(7, shortRun)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different lists (%d and %d requests)", w.name, len(a), len(b))
		}
		c, err := w.list(8, shortRun)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if listDigest(a) == listDigest(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", w.name)
		}
	}
}

func TestOpenLoopScheduleDependsOnlyOnTheSeed(t *testing.T) {
	w, _ := workloadByName("serve-interactive")
	a, _ := w.list(3, 2)
	b, _ := w.list(3, 2)
	c, _ := w.list(4, 2)
	due := func(rs []Request) (out []int64) {
		for _, r := range rs {
			out = append(out, int64(r.Due))
		}
		return out
	}
	if !reflect.DeepEqual(due(a), due(b)) {
		t.Error("seed 3 gave two different arrival schedules")
	}
	if reflect.DeepEqual(due(a), due(c)) {
		t.Error("seeds 3 and 4 gave the same arrival schedule")
	}
	// Poisson arrivals at serveRate: 300 expected in 2s; 5 sigma is ~90.
	if n := len(a); n < 210 || n > 390 {
		t.Errorf("%d arrivals in 2s, want about %d", n, 2*serveRate)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

// A fresh list grown past its head on demand must equal a longer head:
// the requests a fast daemon gets do not depend on when they were built.
func TestFreshListsGrowOnDemand(t *testing.T) {
	for _, name := range []string{"sweep-control", "sweep-datapath"} {
		w, _ := workloadByName(name)
		short, err := w.list(5, shortRun)
		if err != nil {
			t.Fatal(err)
		}
		long, err := w.list(5, 2*shortRun)
		if err != nil {
			t.Fatal(err)
		}
		l := &requestList{reqs: short, grow: func(i int) (Request, error) { return w.fresh(5, i) }}
		if _, err := l.at(len(long) - 1); err != nil {
			t.Fatal(err)
		}
		if len(long) <= len(short) || !reflect.DeepEqual(l.all(), long) {
			t.Errorf("%s: the grown list differs from the longer head", name)
		}
	}
}

func TestControlDesignsStayWithinTheExactActivityBound(t *testing.T) {
	w, _ := workloadByName("sweep-control")
	reqs, err := w.list(11, shortRun)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if n := countConditionals(r.Source); n > maxConditionals {
			t.Fatalf("a sweep-control design has %d conditionals, want at most %d", n, maxConditionals)
		}
		if r.BudgetMax-r.BudgetMin != 3 {
			t.Fatalf("sweep over %d..%d, want 4 budgets", r.BudgetMin, r.BudgetMax)
		}
	}
}

// TestInputDigestsRecorded is the drift check the benchmark itself runs:
// the default seed's lists must hash to what inputs.json records. When the
// generator changes on purpose, regenerate inputs.json with -digests.
func TestInputDigestsRecorded(t *testing.T) {
	var in inputs
	if err := json.Unmarshal(inputsJSON, &in); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		got, err := inputDigest(w, in)
		if err != nil {
			t.Fatal(err)
		}
		if got != in.Digests[w.name] {
			t.Errorf("%s: input digest %s, inputs.json records %s", w.name, got, in.Digests[w.name])
		}
	}
}

func TestStoreWarmStaysUnderTheWarmJobBound(t *testing.T) {
	w, _ := workloadByName("store-warm")
	reqs, err := w.list(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := 0
	for _, r := range reqs {
		if r.Kind == "sweep" {
			sweeps++
		}
	}
	// pmsynthd refuses warm sweep restores past -max-warm-jobs (256).
	if sweeps != storeWarmDesigns || sweeps >= 256 {
		t.Errorf("%d warm sweeps per cycle, want %d (< 256)", sweeps, storeWarmDesigns)
	}
}
