package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/netlist"
)

// canonicalNetlist renders the circuit in canonical .bench form, the
// text a cache key hashes.
func canonicalNetlist(c *netlist.Circuit) []byte { return bench.Append(nil, c) }

// referenceCacheKey is the cache key as serve hashed it over the whole
// canonical text built in memory: "endpoint\nlen(canon)\n", canon, then
// the options JSON.
func referenceCacheKey(endpoint string, canon []byte, opts any) (string, error) {
	oj, err := json.Marshal(opts)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	hdr := append([]byte(endpoint), '\n')
	hdr = strconv.AppendInt(hdr, int64(len(canon)), 10)
	h.Write(append(hdr, '\n'))
	h.Write(canon)
	h.Write(oj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestCacheKeyMatchesBuiltText holds cacheKey, which counts the
// canonical text and writes it into the hash in pieces, to the key
// hashed over the text built whole, on one circuit of every generator
// family and on two whose text spans many of cacheKey's buffers.
func TestCacheKeyMatchesBuiltText(t *testing.T) {
	specs := []string{
		"c17", "tree:seed=3,leaves=40", "dag:seed=2,gates=120", "cone:width=9",
		"parity:width=9", "rca:width=4", "cmp:width=4", "decoder:bits=3",
		"mul:width=3", "rpr:seed=4,cones=2,width=8,glue=20", "bshift:width=8", "alu:width=3",
		"tree:leaves=2000,seed=1", "dag:gates=2000,seed=4",
	}
	keyOpts, _, _, err := parsePlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		canon := canonicalNetlist(c)
		if n := bench.Size(c); n != len(canon) {
			t.Errorf("%s: bench.Size = %d, the text is %d bytes", spec, n, len(canon))
		}
		for _, endpoint := range []string{"/v1/plan", "/v1/lint"} {
			want, err := referenceCacheKey(endpoint, canon, keyOpts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cacheKey(endpoint, c, keyOpts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s %s: key %s, key over the built text %s", spec, endpoint, got, want)
			}
		}
	}
}

// TestCacheKeyAllocatesNoText: a key costs about the same whatever the
// circuit's size, since the text goes through fixed buffers. Building
// the text cost 117 KB on the 2000-leaf tree.
func TestCacheKeyAllocatesNoText(t *testing.T) {
	keyOpts, _, _, err := parsePlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	bytesPerKey := func(spec string) float64 {
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return bytesPerRun(1, 20, func() {
			if _, err := cacheKey("/v1/plan", c, keyOpts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := bytesPerKey("tree:leaves=50,seed=7"), bytesPerKey("tree:leaves=2000,seed=1")
	if large > small+1024 {
		t.Errorf("a key allocates %.0f B on a 50-leaf tree and %.0f B on a 2000-leaf one; the text is built whole again", small, large)
	}
}
