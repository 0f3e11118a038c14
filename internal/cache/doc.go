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
// Values are written atomically (temp file + rename) with a checksummed,
// key-verified file format, read back lazily when no live job answers,
// and garbage-collected least-recently-used when the store exceeds its
// byte budget. Every failure mode — truncated file, corrupt bytes, a
// reader racing the GC — degrades to a cache miss, never an error and
// never a wrong value, so a process restarted over the same directory
// serves warm hits without recomputing anything.
package cache
