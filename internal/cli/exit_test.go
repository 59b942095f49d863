package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("boom"), ExitFailure},
		{&WriteError{Path: "x", Err: errors.New("disk full")}, ExitWriteFailure},
		{fmt.Errorf("wrapped: %w", &WriteError{Path: "x", Err: io.ErrShortWrite}), ExitWriteFailure},
		{context.DeadlineExceeded, ExitDeadline},
		{context.Canceled, ExitDeadline},
		{fmt.Errorf("sim: %w", context.DeadlineExceeded), ExitDeadline},
		{Usage(errors.New("bad flag")), ExitUsage},
		{fmt.Errorf("start: %w", Usage(errors.New("bad flag"))), ExitUsage},
		// A usage error wrapping a deadline keeps the deadline code:
		// timeouts stay distinguishable no matter how they travel.
		{Usage(context.DeadlineExceeded), ExitDeadline},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestUsageWrapper(t *testing.T) {
	if Usage(nil) != nil {
		t.Error("Usage(nil) must stay nil")
	}
	base := errors.New("no such generator")
	err := Usage(base)
	if !errors.Is(err, base) {
		t.Error("Usage must wrap transparently")
	}
	if err.Error() != base.Error() {
		t.Errorf("Usage message = %q, want %q", err.Error(), base.Error())
	}
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	// Create failure (missing directory) must surface as *WriteError.
	err := WriteFile(filepath.Join(t.TempDir(), "nodir", "out.txt"), func(io.Writer) error { return nil })
	var we *WriteError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WriteError", err)
	}

	// A write-callback failure must surface as *WriteError too.
	err = WriteFile(path, func(io.Writer) error { return io.ErrShortWrite })
	if !errors.As(err, &we) || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want *WriteError wrapping ErrShortWrite", err)
	}

	// So must a failed Close after every write succeeded.
	err = writeClose(path, failClose{io.Discard}, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	})
	if !errors.As(err, &we) || !errors.Is(err, errClose) {
		t.Fatalf("err = %v, want *WriteError wrapping %v", err, errClose)
	}
}

var errClose = errors.New("close: disk full")

// failClose is a file whose writes succeed and whose Close fails.
type failClose struct{ io.Writer }

func (failClose) Close() error { return errClose }
