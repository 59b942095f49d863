package bench_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/netlist"
)

// pieces records each Write it is given.
type pieces struct {
	bytes.Buffer
	writes int
	fail   error
}

func (p *pieces) Write(b []byte) (int, error) {
	if p.fail != nil {
		return 0, p.fail
	}
	p.writes++
	return p.Buffer.Write(b)
}

// wideGate is a circuit whose one gate's line is longer than Write's
// staging buffer.
func wideGate() *netlist.Circuit {
	b := netlist.NewBuilder("wide")
	in := make([]int, 200)
	for i := range in {
		in[i] = b.Input(fmt.Sprintf("a_rather_long_input_name_%03d", i))
	}
	b.MarkOutput(b.AndGate("z", in...))
	return b.MustBuild()
}

// TestWriteMatchesAppend: on every generator family and on a line
// longer than Write's buffer, Write emits exactly Append's text in
// pieces of a kilobyte or more, and Size counts that text.
func TestWriteMatchesAppend(t *testing.T) {
	var circuits []*netlist.Circuit
	for _, spec := range append(slices.Clone(generatorSpecs), "tree:leaves=300,seed=2", "dag:gates=500,seed=3") {
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, c := range append(circuits, wideGate()) {
		want := bench.Append(nil, c)
		if n := bench.Size(c); n != len(want) {
			t.Errorf("%s: Size = %d, Append wrote %d bytes", c.Name(), n, len(want))
		}
		var got pieces
		if err := bench.Write(&got, c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: Write emitted\n%s\nAppend\n%s", c.Name(), got.Bytes(), want)
		}
		if got.writes > len(want)/1024+1 {
			t.Errorf("%s: %d writes for %d bytes", c.Name(), got.writes, len(want))
		}
	}
}

// TestWriteReportsWriteError: the first failed write ends the text with
// its error.
func TestWriteReportsWriteError(t *testing.T) {
	c, err := cli.Generate("dag:gates=200,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := bench.Write(&pieces{fail: boom}, c); !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want %v", err, boom)
	}
}
