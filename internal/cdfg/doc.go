// Package cdfg implements the Control Data Flow Graph used throughout the
// behavioral synthesis flow.
//
// A CDFG is a directed acyclic graph in which each node is a primitive
// operation (arithmetic, comparison, multiplexor) or an interface node
// (input, constant, output). Conditionals in the source language are
// represented as multiplexor nodes: the control input carries the condition
// and the 0/1 data inputs carry the values of the two branches, exactly as
// in Monteiro et al., DAC'96.
//
// Besides ordinary dataflow edges (implied by each node's argument list) a
// graph may carry control edges, the extra precedence constraints the power
// management scheduling algorithm inserts between the last node of a mux's
// control cone and the first nodes of its gated data cones.
//
// A graph is append-only: a node and its argument list never change once
// added. Construction therefore keeps no derived state. Nodes and argument
// lists come from blocks, which Grow sizes up front when the caller knows
// the graph's size (the front end does); the dataflow successor lists are
// built in one block when first read; and the analysis memo describes a
// node count, so the first read after the node list grew drops it once
// instead of every add taking its lock.
package cdfg
