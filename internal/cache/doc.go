// Package cache holds the content-addressed disk tier of the pmsynthd
// serving layer: an optional persistent store (Store) of finished
// sweeps. It is the serving layer's only cache; the in-memory tier is
// the job manager's table of live jobs by dedup key, and the server
// keeps no compiled design.
//
// Keys are canonical content hashes (pmsynth.SweepFingerprint, extended
// by the RTL a synthesize asks for), so a hit is a proof of semantic
// equality: the stored value answers the request exactly.
//
// Values are appended, as checksummed and key-verified records, to a
// segment file the writing Store created, one fsync per value. An
// in-memory index maps each key to its record, so a read is one
// positioned read and writes nothing. Several Stores (several daemons)
// may share one directory: each appends only to its own segments, and a
// miss indexes what the others appended since it last looked. When the
// segments exceed the byte budget, the oldest are deleted whole, never
// one a live Store still appends to. Every failure mode — a torn tail,
// corrupt bytes, a reader racing the GC — degrades to a cache miss,
// never an error and never a wrong value, so a process restarted over
// the same directory serves warm hits without recomputing anything.
package cache
