package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// supports reports whether n samples leave at least minBeyond samples
// above the nearest-rank q-quantile.
func supports(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// minSamples is the smallest sample count whose q-quantile supports.
func minSamples(q float64) int {
	n := 1
	for !supports(n, q) {
		n++
	}
	return n
}

// median returns the nearest-rank median of values (which it sorts).
func median(values []float64) float64 {
	sort.Float64s(values)
	return percentile(values, 0.5)
}

// hostRef times a fixed SHA-256 loop: a drift canary for the host, run
// before and after each run.
func hostRef() time.Duration {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	start := time.Now()
	h := sha256.New()
	for i := 0; i < 48; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return time.Since(start)
}

// sourceDigest identifies the code under test when the checkout is not a
// git repository: SHA-256 over go.mod and every .go file outside hidden
// directories, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		_, _ = io.WriteString(h, rel+"\n") // hash writes never fail
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
