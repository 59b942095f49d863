package serve

import (
	"fmt"
	"testing"
)

// keyGoldenInline is an inline body in deliberately untidy form:
// comments, mixed-case mnemonics, odd spacing, a CRLF line, forward
// references and a one-input shorthand. Its canonical form is what the
// key hashes, so any drift in parsing or canonical rendering moves the
// key.
const keyGoldenInline = "# untidy c17\r\ninput( 1 )\nINPUT(2)\nINPUT(3)  # third\nINPUT(6)\nINPUT(7)\n" +
	"OUTPUT(22)\noutput(23)\n\n23 = nand(16,19)\n22   =   NAND( 10 , 16 )\n" +
	"10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\nbuf7 = AND(7)\nOUTPUT(buf7)\n"

// TestCacheKeyGolden pins the hex cache key of fixed bodies on every
// endpoint, inline and generated. The keys were recorded before the
// parser and the canonical writer were rewritten: a rewrite that moves
// one of them changes every cached result's address.
func TestCacheKeyGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	inline := fmt.Sprintf(`"bench":%q`, keyGoldenInline)
	cases := []struct{ endpoint, body, key string }{
		{"/v1/plan", `{` + inline + `}`,
			"6be5aaf14e279b77b9cbb800c8d544ad2f5aedfd6033153734448ce00778db85"},
		{"/v1/plan", `{"generate":"tree:leaves=200,seed=3","options":{"planner":"cuts","k":3}}`,
			"968ff7bcfd21ac103086351e933917827eaba84e2ff396635bfcc7d7b1705248"},
		{"/v1/plan", `{"generate":"dag:gates=120,seed=5","options":{"planner":"hybrid","ncp":2}}`,
			"9e271b7e7dea1901ab0a5d86815c6aaddbd758e6c48dfe9952f08fdde0b72955"},
		{"/v1/faultsim", `{` + inline + `,"options":{"patterns":256,"source":"counter"}}`,
			"ad0b4a839ec34ac3f8778f73f20db9f679ab5d77857955f184f18a6945616aee"},
		{"/v1/faultsim", `{"generate":"rpr:cones=2,width=10,glue=40","options":{"patterns":1024}}`,
			"f46e265540713b9de2e729820ba29d5c5b8b4624a0490debcddf1360721f4ec8"},
		{"/v1/atpg", `{` + inline + `,"options":{"learn":true}}`,
			"c2a4b1c5c61204b2eee06c4d1eae6d274c926cdb0a21543df30cc24c4a4b4810"},
		{"/v1/atpg", `{"generate":"dag:gates=80,seed=9"}`,
			"1e5add2e3bf318a6ca7eb795ef9f2eb7ad50a9602a0b25f73519b95f9203764c"},
		{"/v1/lint", `{` + inline + `}`,
			"f80b8bf0e0c99935ca16f2b64ebb8849391b9bde529e2a91a039ee8695efee3f"},
		{"/v1/lint", `{"generate":"mul:width=4"}`,
			"cbf600b784e9ae463ecb5e6f6871d5639d093b6ebd4f8154d11da93402b54af1"},
	}
	for _, tc := range cases {
		if got := fullPathKey(t, s, tc.endpoint, tc.body); got != tc.key {
			t.Errorf("%s %.60s: key %s, want %s", tc.endpoint, tc.body, got, tc.key)
		}
	}
}
