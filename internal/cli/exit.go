package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
)

// Exit codes shared by the command-line tools. Scripts can rely on
// these to distinguish "the engine rejected the input" from "the
// results could not be persisted" from "the deadline expired".
const (
	ExitOK = 0
	// ExitFailure is any generic error (bad flags, bad input, engine
	// error).
	ExitFailure = 1
	// ExitWriteFailure means the computation succeeded but a requested
	// output file could not be written (*WriteError).
	ExitWriteFailure = 2
	// ExitUsage means the command could not start: bad flags, bad
	// configuration, or input that could not be consumed (*UsageError).
	// It shares the numeric value 2 with ExitWriteFailure deliberately:
	// both denote environment failures rather than engine failures, and
	// the stderr message carries the distinction. flag.ExitOnError uses
	// the same value for unparsable flags.
	ExitUsage = 2
	// ExitDeadline means a -timeout expired before the run finished;
	// any results already printed are partial.
	ExitDeadline = 3
)

// UsageError marks a bad-usage or bad-configuration failure detected
// before any engine work starts. Commands map it to ExitUsage.
type UsageError struct {
	Err error
}

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usage wraps err as a *UsageError so ExitCode maps it to ExitUsage;
// nil stays nil.
func Usage(err error) error {
	if err == nil {
		return nil
	}
	return &UsageError{Err: err}
}

// WriteError marks a failure to create, write, or close a requested
// output file. Commands map it to ExitWriteFailure.
type WriteError struct {
	Path string
	Err  error
}

func (e *WriteError) Error() string { return fmt.Sprintf("write %s: %v", e.Path, e.Err) }
func (e *WriteError) Unwrap() error { return e.Err }

// WriteFile creates path and streams fn's output into it, folding
// create, write, and close failures into a *WriteError. Close errors
// matter here: on many filesystems a full disk only surfaces at close,
// and silently dropping that error reports success for a truncated
// file.
func WriteFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return &WriteError{Path: path, Err: err}
	}
	return writeClose(path, f, fn)
}

// writeClose is WriteFile after the create: it streams fn's output into
// f and closes it. Tests hand it a file whose Close fails.
func writeClose(path string, f io.WriteCloser, fn func(io.Writer) error) error {
	werr := fn(f)
	cerr := f.Close()
	if werr != nil {
		return &WriteError{Path: path, Err: werr}
	}
	if cerr != nil {
		return &WriteError{Path: path, Err: cerr}
	}
	return nil
}

// ExitCode maps a command run error to the exit code contract above.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ExitDeadline
	default:
		var ue *UsageError
		if errors.As(err, &ue) {
			return ExitUsage
		}
		var we *WriteError
		if errors.As(err, &we) {
			return ExitWriteFailure
		}
		return ExitFailure
	}
}
