package silage

// CompileBound compiles src in working memory of its own and returns the
// design with the bound its graph's blocks were sized from, and whether
// src calls a function, which the bound does not cover.
func CompileBound(src string) (d *Design, nodes, args int, calls bool, err error) {
	s := new(compileState)
	d, err = s.compile(src)
	nodes, args = s.graphBound()
	return d, nodes, args, s.mem.calls.count > 0, err
}
