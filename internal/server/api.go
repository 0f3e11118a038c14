package server

// Translation between the pmsynthd wire types, which repro/client
// defines for the SDK and the server alike, and the public pmsynth
// request types. Enum-valued fields (mux orders, resource classes) travel
// as their canonical string names so clients never depend on Go constant
// numbering.

import (
	"fmt"

	"repro"
	"repro/client"
	"repro/internal/cdfg"
)

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// classNames maps wire names to resource classes.
var classNames = map[string]cdfg.Class{
	cdfg.ClassMux.String():  cdfg.ClassMux,
	cdfg.ClassComp.String(): cdfg.ClassComp,
	cdfg.ClassAdd.String():  cdfg.ClassAdd,
	cdfg.ClassSub.String():  cdfg.ClassSub,
	cdfg.ClassMul.String():  cdfg.ClassMul,
}

// parseResources resolves a wire resource map; nil stays nil ("minimize").
func parseResources(res map[string]int) (map[cdfg.Class]int, error) {
	if len(res) == 0 {
		return nil, nil
	}
	out := make(map[cdfg.Class]int, len(res))
	for name, n := range res {
		c, ok := classNames[name]
		if !ok {
			return nil, fmt.Errorf("unknown resource class %q (valid: mux, comp, add, sub, mul)", name)
		}
		if n < 1 {
			return nil, fmt.Errorf("resource %q budget %d: must be >= 1", name, n)
		}
		out[c] = n
	}
	return out, nil
}

// toOptions translates a wire options value.
func toOptions(o client.Options) (pmsynth.Options, error) {
	order, err := pmsynth.ParseOrder(o.Order)
	if err != nil {
		return pmsynth.Options{}, err
	}
	res, err := parseResources(o.Resources)
	if err != nil {
		return pmsynth.Options{}, err
	}
	return pmsynth.Options{
		Budget:    o.Budget,
		II:        o.II,
		Order:     order,
		Resources: res,
	}, nil
}

// fromOptions translates back for result views.
func fromOptions(opt pmsynth.Options) client.Options {
	out := client.Options{
		Budget: opt.Budget,
		II:     opt.II,
		Order:  opt.Order.String(),
	}
	if len(opt.Resources) > 0 {
		out.Resources = make(map[string]int, len(opt.Resources))
		for c, n := range opt.Resources {
			out.Resources[c.String()] = n
		}
	}
	return out
}

// toSpec translates a wire sweep spec.
func toSpec(s client.SweepSpec) (pmsynth.SweepSpec, error) {
	spec := pmsynth.SweepSpec{
		Budgets:   s.Budgets,
		BudgetMin: s.BudgetMin,
		BudgetMax: s.BudgetMax,
		IIs:       s.IIs,
		Workers:   s.Workers,
	}
	for _, name := range s.Orders {
		o, err := pmsynth.ParseOrder(name)
		if err != nil {
			return pmsynth.SweepSpec{}, err
		}
		spec.Orders = append(spec.Orders, o)
	}
	for _, res := range s.Resources {
		r, err := parseResources(res)
		if err != nil {
			return pmsynth.SweepSpec{}, err
		}
		spec.Resources = append(spec.Resources, r)
	}
	return spec, nil
}

// toPoint projects a sweep point into its wire form.
func toPoint(index int, p *pmsynth.SweepPoint) client.Point {
	out := client.Point{Index: index, Options: fromOptions(p.Options)}
	if p.Err != nil {
		out.Err = p.Err.Error()
	} else {
		row := client.Row(p.Row)
		out.Row = &row
	}
	return out
}
