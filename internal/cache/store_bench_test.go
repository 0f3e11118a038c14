package cache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cache"
)

// warmEntries is the number of entries BenchmarkStoreOpen restarts over:
// the shape of the benchmark harness's store-warm workload, 480 answers
// of 0.9–1.7 KB each.
const warmEntries = 480

// benchKey returns the i-th key in the serving layer's shape: a view
// qualifier and a hex fingerprint.
func benchKey(i int) string {
	sum := sha256.Sum256([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
	return "sweep|" + hex.EncodeToString(sum[:])
}

// benchValue returns the i-th value, 0.9–1.7 KB long.
func benchValue(i int) []byte {
	v := make([]byte, 900+(i*797)%800)
	for j := range v {
		v[j] = byte(i + j)
	}
	return v
}

// filledStore opens a store over a fresh directory holding warmEntries
// entries.
func filledStore(b *testing.B) *cache.Store {
	b.Helper()
	s, err := cache.OpenStore(b.TempDir(), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmEntries; i++ {
		if err := s.Put(benchKey(i), benchValue(i)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkStorePut times one durable write of a fresh key.
func BenchmarkStorePut(b *testing.B) {
	s, err := cache.OpenStore(b.TempDir(), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := benchValue(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(benchKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet times one hit.
func BenchmarkStoreGet(b *testing.B) {
	s := filledStore(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(benchKey(i % warmEntries)); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreOpen times a restart: opening a store over a directory a
// closed store left warmEntries entries in.
func BenchmarkStoreOpen(b *testing.B) {
	s := filledStore(b)
	dir := s.Dir()
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cache.OpenStore(dir, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != warmEntries {
			b.Fatalf("Len = %d, want %d", s.Len(), warmEntries)
		}
		s.Close()
	}
}
