package cache_test

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cache"
)

// ExampleStore shows the disk tier's contract: values put under a
// content-addressed key survive reopening the store from the same
// directory — the warm-start path of a restarted pmsynthd.
func ExampleStore() {
	dir, err := os.MkdirTemp("", "pmstore-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	st, err := cache.OpenStore(dir, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	if err := st.Put("fingerprint-abc", []byte("sweep table")); err != nil {
		log.Fatal(err)
	}

	// A second Store over the same directory — a restarted process —
	// serves the entry with no handoff.
	warm, err := cache.OpenStore(dir, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	val, ok := warm.Get("fingerprint-abc")
	fmt.Printf("hit=%v val=%q\n", ok, val)
	_, ok = warm.Get("never-written")
	fmt.Printf("miss ok=%v\n", ok)

	stats := warm.Stats()
	fmt.Printf("hits=%d misses=%d entries=%d\n", stats.Hits, stats.Misses, stats.Entries)
	// Output:
	// hit=true val="sweep table"
	// miss ok=false
	// hits=1 misses=1 entries=1
}
