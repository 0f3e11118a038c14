package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro"
	"repro/client"
)

// verifySamples is how many designs per run are re-checked against the
// reference interpreter, and verifyVectors how many input vectors each.
const (
	verifySamples = 16
	verifyVectors = 32
)

// maxChecked bounds the distinct answers compared against the library per
// run; past it a seeded sample is compared. Recomputing every answer of a
// closed-loop run would cost as much CPU as the load itself.
const maxChecked = 400

// expected computes the library's answer to r, in the canonical form the
// load records for the served answer.
func expected(r Request) (string, error) {
	d, err := pmsynth.Compile(r.Source)
	if err != nil {
		return "", err
	}
	if r.Kind == "synth" {
		syn, err := pmsynth.Synthesize(d, pmsynth.Options{Budget: r.Budget})
		if err != nil {
			return "", err
		}
		var vhdl, verilog string
		switch r.Emit {
		case "vhdl":
			vhdl, err = syn.VHDL()
		case "verilog":
			verilog, err = syn.Verilog()
		}
		if err != nil {
			return "", err
		}
		return canonSynth(client.Row(syn.Row()), vhdl, verilog), nil
	}
	sr, err := pmsynth.Sweep(d, pmsynth.SweepSpec{BudgetMin: r.BudgetMin, BudgetMax: r.BudgetMax})
	if err != nil {
		return "", err
	}
	view := func(p *pmsynth.SweepPoint) pointView {
		i := -1
		for k := range sr.Points {
			if &sr.Points[k] == p {
				i = k
			}
		}
		if p.Err != nil {
			return pointView{Index: i, Err: p.Err.Error()}
		}
		row := client.Row(p.Row)
		return pointView{Index: i, Row: &row}
	}
	switch r.View {
	case "table":
		return sr.Table(), nil
	case "best":
		if best := sr.Best(pmsynth.MaxPowerReduction); best != nil {
			return canonPoints([]pointView{view(best)}), nil
		}
		return canonPoints(nil), nil
	}
	ps := []pointView{}
	for _, p := range sr.Pareto() {
		ps = append(ps, view(p))
	}
	return canonPoints(ps), nil
}

// gate is the output-correctness check of one run.
type gate struct {
	problems []string
	// digest fingerprints the served answers of the first digestLen
	// requests of the list, which every run of a seed sends.
	digest string
}

// digestLen bounds the requests the result digest covers.
const digestLen = 32

// check compares the distinct served answers (up to maxChecked of them)
// against the library, has the reference interpreter re-verify a seeded
// sample of designs, and digests the served answers. Expected answers are
// computed on one goroutine per CPU.
func check(reqs []Request, loads []*loadResult, seed int64) gate {
	var g gate
	served := make(map[string]string)
	for _, l := range loads {
		for _, k := range l.conflicts {
			g.problems = append(g.problems, "two responses differ for "+k)
		}
		for k, v := range l.served {
			if prev, ok := served[k]; ok && prev != v {
				g.problems = append(g.problems, "responses differ across loads for "+k)
			}
			served[k] = v
		}
		if l.uncached > 0 {
			g.problems = append(g.problems, fmt.Sprintf("%d store-warm answers ran the flow instead of reading the store", l.uncached))
		}
	}
	byKey := make(map[string]Request)
	var keys []string
	for _, r := range reqs {
		k := r.Key()
		if _, ok := served[k]; ok {
			if _, dup := byKey[k]; !dup {
				keys = append(keys, k)
			}
			byKey[k] = r
		}
	}
	// keys is in first-occurrence order, so its head holds every answer
	// the digest covers; those are always checked.
	checked := keys
	if len(keys) > maxChecked {
		checked = slices.Clone(keys[:digestLen])
		rest := keys[digestLen:]
		rnd := rand.New(rand.NewSource(subSeed(seed, "check", 0, 0)))
		for _, j := range rnd.Perm(len(rest))[:maxChecked-digestLen] {
			checked = append(checked, rest[j])
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan string)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				want, err := expected(byKey[k])
				msg := ""
				switch {
				case err != nil:
					msg = fmt.Sprintf("library failed on %s: %v", k, err)
				case want != served[k]:
					msg = fmt.Sprintf("served answer differs from the library for %s:\n  served:  %.200q\n  library: %.200q", k, served[k], want)
				}
				if msg != "" {
					mu.Lock()
					g.problems = append(g.problems, msg)
					mu.Unlock()
				}
			}
		}()
	}
	for _, k := range checked {
		work <- k
	}
	close(work)
	wg.Wait()
	slices.Sort(g.problems)

	rnd := rand.New(rand.NewSource(subSeed(seed, "verify", 0, 0)))
	for _, i := range rnd.Perm(len(keys))[:min(verifySamples, len(keys))] {
		r := byKey[keys[i]]
		budget := r.Budget
		if r.Kind == "sweep" {
			budget = r.BudgetMin
		}
		if err := verifyDesign(r.Source, budget, rnd.Int63()); err != nil {
			g.problems = append(g.problems, fmt.Sprintf("reference interpreter rejects %s: %v", keys[i], err))
		}
	}

	h := sha256.New()
	for _, r := range reqs[:min(digestLen, len(reqs))] {
		fmt.Fprintf(h, "%s\n%s\n", r.Key(), served[r.Key()])
	}
	g.digest = hex.EncodeToString(h.Sum(nil))
	return g
}

// verifyDesign checks the gated schedule of src at budget against the
// reference interpreter.
func verifyDesign(src string, budget int, seed int64) error {
	d, err := pmsynth.Compile(src)
	if err != nil {
		return err
	}
	syn, err := pmsynth.Synthesize(d, pmsynth.Options{Budget: budget})
	if err != nil {
		return err
	}
	return syn.Verify(verifyVectors, seed)
}
