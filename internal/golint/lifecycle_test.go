package golint

import (
	"strings"
	"testing"
)

// The acceptance pins for the G015 and G016 bring-up fixes: each
// deletes the repair from a module copy and watches the rule fire. They
// are the proof the rules guard the live tree, not just their fixtures.

// TestDeletingDirSyncFiresG015 pins the durability rule to the result
// installer: remove writeResult's directory sync after the rename and
// a crash can forget the installed blob — exactly invariant 3.
func TestDeletingDirSyncFiresG015(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a mutated module copy")
	}
	root := mutateModule(t, "internal/jobs/store.go",
		"\tif err := st.syncDir(); err != nil {\n"+
			"\t\treturn fmt.Errorf(\"jobs: sync result dir: %w\", err)\n"+
			"\t}\n",
		"")
	found := false
	for _, f := range runRuleOn(t, root, "g015") {
		if f.File == "internal/jobs/store.go" &&
			strings.Contains(f.Message, "os.Rename is not followed by a directory sync") {
			found = true
		}
	}
	if !found {
		t.Error("deleting writeResult's directory sync did not fire G015")
	}
}

// TestDeletingFlushFiresG016 pins the streaming rule to the job-events
// handler: remove the per-iteration Flush and the NDJSON stream
// buffers silently until the job finishes.
func TestDeletingFlushFiresG016(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a mutated module copy")
	}
	root := mutateModule(t, "internal/serve/jobs.go",
		"\t\tif err := rc.Flush(); err != nil {\n"+
			"\t\t\tstatus = statusClientClosed\n"+
			"\t\t\treturn\n"+
			"\t\t}\n",
		"\t\t_ = rc\n")
	found := false
	for _, f := range runRuleOn(t, root, "g016") {
		if f.File == "internal/serve/jobs.go" &&
			strings.Contains(f.Message, "NDJSON stream loop never flushes") {
			found = true
		}
	}
	if !found {
		t.Error("deleting the job-events Flush did not fire G016")
	}
}
