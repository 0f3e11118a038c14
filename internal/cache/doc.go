// Package cache holds the two content-addressed tiers of the pmsynthd
// serving layer: a sharded in-memory LRU with singleflight deduplication
// (Cache), which backs the compiled-design cache, and an optional
// disk-backed persistent store (Store) of finished sweeps.
//
// Keys are canonical content hashes (a source hash, or
// pmsynth.SweepFingerprint), so a hit is a proof of semantic equality:
// the cached value answers the request exactly. The memory tier is
// sharded to keep lock contention off the serving hot path, each shard
// maintaining its own LRU list, and computations are deduplicated: when N
// goroutines ask for the same missing key concurrently, exactly one runs
// the compute function and the other N-1 wait for its result, so a
// source compiles once however many requests race on it.
//
// The disk tier makes results durable: values are written atomically
// (temp file + rename) with a checksummed, key-verified file format, read
// back lazily when no live job answers, and garbage-collected
// least-recently-used when the store exceeds its byte budget. Every
// failure mode — truncated file, corrupt bytes, a reader racing the GC —
// degrades to a cache miss, never an error and never a wrong value, so a
// process restarted over the same directory serves warm hits without
// recomputing anything.
package cache
