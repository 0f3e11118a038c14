// Package silage implements the frontend for a Silage-inspired behavioral
// description language, the input format of the original HYPER flow used in
// Monteiro et al., DAC'96.
//
// The language is a single-assignment dataflow language. Conditionals are
// expressions written in Silage's guarded form
//
//	out = if cond -> thenValue || elseValue fi;
//
// and elaborate to multiplexor nodes in the CDFG, which is exactly the
// structure the power management scheduling algorithm operates on.
//
// A full description:
//
//	# |a-b| from the paper's Figures 1-2
//	func absdiff(a: num<8>, b: num<8>) out: num<8> =
//	begin
//	    g   = a > b;
//	    d1  = a - b;
//	    d2  = b - a;
//	    out = if g -> d1 || d2 fi;
//	end
//
// Types are num<W> (a W-bit word, default 8) and bool. Operators: + - *
// comparisons (< > <= >= == !=), boolean & | !, constant shifts (x >> 2,
// x << 3), unary minus, and the if-fi conditional. Comments run from '#'
// to end of line.
//
// A file may hold several functions; the last one is the design and the
// others are single-result helpers that inline at their call sites:
//
//	func absd(x: num<8>, y: num<8>) d: num<8> =
//	begin
//	    g = x > y;
//	    d = if g -> x - y || y - x fi;
//	end
//
//	func main(p: num<8>, q: num<8>, r: num<8>) o: num<8> =
//	begin
//	    o = absd(p, q) + absd(q, r);
//	end
//
// Recursion is rejected; helpers may reference each other in any order.
//
// An expression tree may be at most 256 levels high, counting every
// operator, conditional and call, and each operator of a chain like
// a+b+c; the parser allows 512 unary operators, conditionals, calls and
// parentheses around any point. Deeper input fails with a positioned
// error before the parser, the elaborator or the printer recurses on it.
//
// Identifiers may begin with '_', so a design may name a signal like the
// elaborator's temporaries (_t1, _t2, ...). A temporary whose name the
// design's own parameters or node-creating signals take is named $tN
// instead, a name no identifier can spell.
//
// # Memory
//
// The lexer recognises keywords and operators with a switch, and each
// token carries an Op code that the AST's operator nodes keep; the parser
// and the elaborator compare codes, not strings. Compile allocates only
// what its Design keeps. It builds the AST in parse memory (blocks per
// node type) that it takes from a bounded free list, together with the
// elaborator's maps, and hands them back once the design is elaborated:
// a Design holds no AST. The free list bounds the number of idle states,
// and a source longer than 16 KiB drops its state instead of handing it
// back, so no idle state keeps blocks sized for a large design. The
// graph's node and argument blocks are sized from a bound computed from
// the AST values the parse made, and the names the elaborator makes share
// one block. Parse and ParseFile use fresh parse memory, so the ASTs they
// return own theirs.
package silage
