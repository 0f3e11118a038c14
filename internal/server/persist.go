package server

// Serialization between finished sweeps and the disk store's opaque
// byte values. The store itself guards integrity (checksums, atomic
// writes); this layer guards meaning: everything a response can render
// — rows, RTL artifacts, per-point options and errors — round trips
// losslessly, so a warm hit is byte-identical to the run that produced
// it. The encoding is versioned independently of the store's file
// format; a version mismatch decodes as an error, which the serving
// layer treats as a miss and recomputes.

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro"
	"repro/client"
	"repro/internal/cdfg"
)

// persistVersion tags the stored encoding; bump on any change to the
// stored shape or its interpretation, or to the RTL text a sweep
// carries, so entries written by an older daemon are recomputed, never
// misread or served stale.
const persistVersion = 4

// storedSweep is the stored form of a finished sweep: the design name
// (the result views print it) and every point in enumeration order, each
// in the wire form the result views serve, so a point has exactly one
// serialized shape and enum values are stored by canonical name, never by
// Go constant numbering. A synthesize is a one-point sweep; VHDL and
// Verilog hold the RTL it asked for.
type storedSweep struct {
	Version int            `json:"v"`
	Design  string         `json:"design"`
	Points  []client.Point `json:"points"`
	VHDL    string         `json:"vhdl,omitempty"`
	Verilog string         `json:"verilog,omitempty"`
}

// finishedSweep is a finished sweep as its job holds it, computed or
// restored alike: the table decoded from its stored bytes, and the RTL of
// its point when a synthesize asked for it.
type finishedSweep struct {
	sr            *pmsynth.SweepResult
	vhdl, verilog string
}

// encodeSweepResult serializes a completed sweep table and the RTL emit
// asks for, generated from its first point (a synthesize's only one).
// Full per-point synthesis artifacts are never encoded: only what the
// responses render survives, and the job itself holds the decoded bytes.
func encodeSweepResult(sr *pmsynth.SweepResult, emit rtl) ([]byte, error) {
	st := storedSweep{
		Version: persistVersion,
		Points:  make([]client.Point, len(sr.Points)),
	}
	if sr.Design != nil && sr.Design.Graph != nil {
		st.Design = sr.Design.Graph.Name
	}
	for i := range sr.Points {
		st.Points[i] = toPoint(i, &sr.Points[i])
	}
	if syn := sr.Points[0].Synthesis; syn != nil {
		var err error
		if emit.vhdl {
			if st.VHDL, err = syn.VHDL(); err != nil {
				return nil, fmt.Errorf("vhdl: %w", err)
			}
		}
		if emit.verilog {
			if st.Verilog, err = syn.Verilog(); err != nil {
				return nil, fmt.Errorf("verilog: %w", err)
			}
		}
	}
	return json.Marshal(st)
}

// decodeSweepResult restores a stored sweep. Its table carries a
// name-only Design — enough for every view (they read only the name) —
// and reconstructed errors whose messages match the original rendering
// exactly.
func decodeSweepResult(blob []byte) (*finishedSweep, error) {
	var st storedSweep
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, fmt.Errorf("stored sweep: %w", err)
	}
	if st.Version != persistVersion {
		return nil, fmt.Errorf("stored sweep: version %d, want %d", st.Version, persistVersion)
	}
	if len(st.Points) == 0 {
		// No sweep enumerates zero points: this is some other shape.
		return nil, fmt.Errorf("stored sweep: no points")
	}
	sr := &pmsynth.SweepResult{
		Design: &pmsynth.Design{Graph: &cdfg.Graph{Name: st.Design}},
		Points: make([]pmsynth.SweepPoint, len(st.Points)),
	}
	for i, sp := range st.Points {
		opt, err := toOptions(sp.Options)
		if err != nil {
			return nil, fmt.Errorf("stored sweep point %d: %w", i, err)
		}
		p := &sr.Points[i]
		p.Options = opt
		switch {
		case sp.Err != "":
			p.Err = errors.New(sp.Err)
		case sp.Row != nil:
			p.Row = pmsynth.Row(*sp.Row)
		default:
			return nil, fmt.Errorf("stored sweep point %d: neither row nor error", i)
		}
	}
	return &finishedSweep{sr: sr, vhdl: st.VHDL, verilog: st.Verilog}, nil
}
