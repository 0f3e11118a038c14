package silage

// block hands out values of T from arrays it keeps. A value it has handed
// out never moves: when the current array is full, the next value comes
// from a new one, twice as large.
type block[T any] struct {
	arrays [][]T
	// cur indexes the array being filled and used counts its values
	// handed out; count counts every value handed out since the last
	// reset.
	cur, used, count int
}

// take returns n contiguous zero values, capped at n.
func (b *block[T]) take(n int) []T {
	for b.cur < len(b.arrays) && len(b.arrays[b.cur])-b.used < n {
		b.cur, b.used = b.cur+1, 0
	}
	if b.cur == len(b.arrays) {
		size := 8
		if b.cur > 0 {
			size = 2 * len(b.arrays[b.cur-1])
		}
		b.arrays = append(b.arrays, make([]T, max(size, n)))
	}
	s := b.arrays[b.cur][b.used : b.used+n : b.used+n]
	b.used += n
	b.count += n
	return s
}

// new returns a pointer to one zero value.
func (b *block[T]) new() *T { return &b.take(1)[0] }

// reset makes every value available again, zeroed so that the arrays pin
// nothing of the last parse. A parse that needed more than one array
// leaves a single array of their total size for the next.
func (b *block[T]) reset() {
	switch len(b.arrays) {
	case 0:
	case 1:
		clear(b.arrays[0][:b.used])
	default:
		total := 0
		for _, a := range b.arrays {
			total += len(a)
		}
		clear(b.arrays)
		b.arrays = append(b.arrays[:0], make([]T, total))
	}
	b.cur, b.used, b.count = 0, 0, 0
}

// parseMem is the memory a parse builds its AST in: one block per node
// type and per list element type. Parse and ParseFile use a fresh one,
// which the returned AST then owns. Compile takes one from a free list
// and resets it after elaboration, when the design no longer needs the
// AST (see compileState).
type parseMem struct {
	idents   block[Ident]
	ints     block[IntLit]
	unaries  block[Unary]
	binaries block[Binary]
	shifts   block[ShiftLit]
	ifs      block[If]
	calls    block[Call]
	assigns  block[Assign]
	funcs    block[FuncDecl]
	exprs    block[Expr]
	params   block[Param]
	stmts    block[*Assign]

	// The list stacks collect a list of unknown length; the finished
	// list is copied into its block and popped, so a list nested in
	// another (a call's arguments) stacks above it.
	exprStack  []Expr
	paramStack []Param
	stmtStack  []*Assign
}

// reset zeroes and keeps every block and stack. A parse that stopped on
// an error may leave values stacked.
func (m *parseMem) reset() {
	m.idents.reset()
	m.ints.reset()
	m.unaries.reset()
	m.binaries.reset()
	m.shifts.reset()
	m.ifs.reset()
	m.calls.reset()
	m.assigns.reset()
	m.funcs.reset()
	m.exprs.reset()
	m.params.reset()
	m.stmts.reset()
	m.exprStack = clearStack(m.exprStack)
	m.paramStack = clearStack(m.paramStack)
	m.stmtStack = clearStack(m.stmtStack)
}

func clearStack[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// pop moves the values stacked above mark into b and returns them; an
// empty list is nil, as append would have left it.
func pop[T any](stack *[]T, b *block[T], mark int) []T {
	s := *stack
	if len(s) == mark {
		return nil
	}
	out := b.take(len(s) - mark)
	copy(out, s[mark:])
	clear(s[mark:])
	*stack = s[:mark]
	return out
}
