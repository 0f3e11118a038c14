package server

// Byte pins of the synthesize 200 answer: however the handler writes it,
// its body is exactly what writeJSON writes for the
// client.SynthesizeResult the body decodes to.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/bench"
	"repro/internal/telemetry"
)

// checkAnswer decodes a 200 synthesize body, requires it to equal the
// bytes writeJSON writes for the decoded value, and returns that value.
func checkAnswer(t *testing.T, body []byte) client.SynthesizeResult {
	t.Helper()
	var res client.SynthesizeResult
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("200 body does not decode as a SynthesizeResult: %v\n%s", err, body)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, res)
	if want := rec.Body.Bytes(); !bytes.Equal(body, want) {
		t.Fatalf("200 body differs from writeJSON's bytes for its value:\n--- body ---\n%s\n--- writeJSON ---\n%s", body, want)
	}
	return res
}

// FuzzSynthesizeHandler fuzzes the synthesize endpoint at the handler
// level (no network): any body must produce a well-formed JSON response
// with a sane status, the handler must never panic, and every 200 answer
// must be byte for byte what writeJSON writes for its value.
func FuzzSynthesizeHandler(f *testing.F) {
	f.Add([]byte(`{"source":"func f(a: num) o: num = begin o = a + 1; end","options":{"budget":1}}`))
	f.Add([]byte(`{"source":"func f(a: num) o: num = begin o = a + 1; end","emit":["vhdl","verilog"]}`))
	f.Add([]byte(`{"source":""}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"source":"x","options":{"budget":1048577}}`))
	s, err := New(Config{})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("non-JSON response %q for body %q", rec.Body.Bytes(), body)
		}
		if rec.Code == http.StatusOK {
			checkAnswer(t, rec.Body.Bytes())
		}
	})
}

// TestSynthesizeAnswerBytes asks for every paper circuit and every extra
// at its critical path under each of the four emit sets, and checks the
// computed answer, the answer joined to the live job and the answer a
// second server restores from the store: each body is writeJSON's bytes
// for its value, the three agree apart from cached and trace, and they
// carry exactly the RTL asked for.
func TestSynthesizeAnswerBytes(t *testing.T) {
	circuits := append(bench.All(), bench.Extras()...)
	emits := [][]string{nil, {"vhdl"}, {"verilog"}, {"vhdl", "verilog"}}
	type request struct {
		name string
		req  client.SynthesizeRequest
		want client.SynthesizeResult // the computed answer
	}
	var reqs []*request
	for _, c := range circuits {
		cp, err := pmsynth.CriticalPath(c.Design)
		if err != nil {
			t.Fatal(err)
		}
		for _, emit := range emits {
			reqs = append(reqs, &request{
				name: c.Name + "/" + strings.Join(append([]string{"emit"}, emit...), "+"),
				req:  client.SynthesizeRequest{Source: c.Source, Options: client.Options{Budget: cp}, Emit: emit},
			})
		}
	}
	answer := func(s *Server, r *request) client.SynthesizeResult {
		t.Helper()
		body, err := json.Marshal(r.req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.name, rec.Code, rec.Body.Bytes())
		}
		return checkAnswer(t, rec.Body.Bytes())
	}
	same := func(how string, r *request, got client.SynthesizeResult) {
		t.Helper()
		if !got.Cached {
			t.Errorf("%s %s: not marked cached", how, r.name)
		}
		got.Cached, got.Trace = r.want.Cached, r.want.Trace
		if got != r.want {
			t.Errorf("%s %s differs from the computed answer", how, r.name)
		}
	}

	dir := t.TempDir()
	cold, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		r.want = answer(cold, r)
		if r.want.Cached {
			t.Errorf("computed %s: marked cached", r.name)
		}
		emitted := strings.Join(r.req.Emit, "+")
		if (r.want.VHDL != "") != strings.Contains(emitted, "vhdl") ||
			(r.want.Verilog != "") != strings.Contains(emitted, "verilog") {
			t.Errorf("computed %s: carries VHDL %t and Verilog %t", r.name, r.want.VHDL != "", r.want.Verilog != "")
		}
		same("joined", r, answer(cold, r))
	}
	cold.Close()

	warm, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	for _, r := range reqs {
		same("restored", r, answer(warm, r))
	}
	if st, _ := warm.StoreStats(); st.Hits != int64(len(reqs)) {
		t.Errorf("store hits = %d, want %d", st.Hits, len(reqs))
	}
}

// BenchmarkSynthesizeAnswer times the 200 write of a finished synthesize
// job into a ResponseWriter that keeps nothing: cordic at its critical
// path with VHDL and Verilog (150 KB of RTL), and dealer with no RTL.
func BenchmarkSynthesizeAnswer(b *testing.B) {
	for _, bc := range []struct {
		name string
		c    *bench.Circuit
		emit rtl
	}{
		{"cordic/vhdl+verilog", bench.Cordic(), rtl{vhdl: true, verilog: true}},
		{"dealer/none", bench.Dealer(), rtl{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			res := finishedAnswer(b, bc.c, bc.emit)
			w := discardWriter{make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				writeSynthesizeResult(w, res)
			}
		})
	}
}

// finishedAnswer is the answer the handler renders for c at its critical
// path from a finished job, which holds what a restore of its stored
// bytes would.
func finishedAnswer(b *testing.B, c *bench.Circuit, emit rtl) client.SynthesizeResult {
	cp, err := pmsynth.CriticalPath(c.Design)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := pmsynth.Sweep(c.Design, pmsynth.SweepSpec{Budgets: []int{cp}, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	blob, err := encodeSweepResult(sr, emit)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := decodeSweepResult(blob)
	if err != nil {
		b.Fatal(err)
	}
	return client.SynthesizeResult{
		Fingerprint: pmsynth.Fingerprint(c.Source, pmsynth.Options{Budget: cp}),
		Cached:      true,
		Trace:       telemetry.NewTraceID(),
		Row:         client.Row(fs.sr.Points[0].Row),
		VHDL:        fs.vhdl,
		Verilog:     fs.verilog,
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body. Like
// net/http's, it is an io.StringWriter.
type discardWriter struct{ header http.Header }

func (d discardWriter) Header() http.Header               { return d.header }
func (d discardWriter) Write(p []byte) (int, error)       { return len(p), nil }
func (d discardWriter) WriteString(s string) (int, error) { return len(s), nil }
func (d discardWriter) WriteHeader(int)                   {}
