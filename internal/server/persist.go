package server

// Serialization between in-memory results and the disk store's opaque
// byte values. The store itself guards integrity (checksums, atomic
// writes); this layer guards meaning: everything a result view can render
// — rows, RTL artifacts, per-point options and errors — round trips
// losslessly, so a warm hit is byte-identical to the run that produced
// it. The encodings are versioned independently of the store's file
// format; a version mismatch decodes as an error, which the serving
// layer treats as a miss and recomputes.

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro"
	"repro/internal/cdfg"
)

// persistVersion tags both stored encodings; bump on any change to the
// stored shapes or their interpretation so entries written by an older
// daemon are recomputed, never misread.
const persistVersion = 2

// storedSynth is the stored form of one synthesize result (the cached
// value of one fingerprint + emit set).
type storedSynth struct {
	Version int         `json:"v"`
	Row     pmsynth.Row `json:"row"`
	VHDL    string      `json:"vhdl,omitempty"`
	Verilog string      `json:"verilog,omitempty"`
}

// encodeSynthResult serializes a synthesize result for the disk store.
func encodeSynthResult(r *synthResult) ([]byte, error) {
	return json.Marshal(storedSynth{
		Version: persistVersion,
		Row:     r.row,
		VHDL:    r.vhdl,
		Verilog: r.verilog,
	})
}

// decodeSynthResult restores a stored synthesize result.
func decodeSynthResult(blob []byte) (*synthResult, error) {
	var st storedSynth
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, fmt.Errorf("stored synth: %w", err)
	}
	if st.Version != persistVersion {
		return nil, fmt.Errorf("stored synth: version %d, want %d", st.Version, persistVersion)
	}
	return &synthResult{row: st.Row, vhdl: st.VHDL, verilog: st.Verilog}, nil
}

// storedSweep is the stored form of a completed sweep table: the design
// name (the result views print it) and every point in enumeration order,
// each in the wire form the result views serve, so a point has exactly
// one serialized shape and enum values are stored by canonical name,
// never by Go constant numbering.
type storedSweep struct {
	Version int             `json:"v"`
	Design  string          `json:"design"`
	Points  []PointResponse `json:"points"`
}

// encodeSweepResult serializes a completed sweep table. Full per-point
// synthesis artifacts are never encoded: only what the result views
// render survives, and the sweep job itself holds the decoded bytes.
func encodeSweepResult(sr *pmsynth.SweepResult) ([]byte, error) {
	st := storedSweep{
		Version: persistVersion,
		Points:  make([]PointResponse, len(sr.Points)),
	}
	if sr.Design != nil && sr.Design.Graph != nil {
		st.Design = sr.Design.Graph.Name
	}
	for i := range sr.Points {
		st.Points[i] = toPoint(i, &sr.Points[i])
	}
	return json.Marshal(st)
}

// decodeSweepResult restores a stored sweep table. The returned result
// carries a name-only Design — enough for every view (they read only the
// name) — and reconstructed errors whose messages match the original
// rendering exactly.
func decodeSweepResult(blob []byte) (*pmsynth.SweepResult, error) {
	var st storedSweep
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, fmt.Errorf("stored sweep: %w", err)
	}
	if st.Version != persistVersion {
		return nil, fmt.Errorf("stored sweep: version %d, want %d", st.Version, persistVersion)
	}
	sr := &pmsynth.SweepResult{
		Design: &pmsynth.Design{Graph: &cdfg.Graph{Name: st.Design}},
		Points: make([]pmsynth.SweepPoint, len(st.Points)),
	}
	for i, sp := range st.Points {
		opt, err := sp.Options.toOptions()
		if err != nil {
			return nil, fmt.Errorf("stored sweep point %d: %w", i, err)
		}
		p := &sr.Points[i]
		p.Options = opt
		switch {
		case sp.Err != "":
			p.Err = errors.New(sp.Err)
		case sp.Row != nil:
			p.Row = *sp.Row
		default:
			return nil, fmt.Errorf("stored sweep point %d: neither row nor error", i)
		}
	}
	return sr, nil
}
