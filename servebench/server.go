package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one cmd/serve process. Cancelling its context sends SIGTERM;
// a server still running 30s later is killed.
type child struct {
	cmd       *exec.Cmd
	cancel    context.CancelFunc
	base      string // http://host:port of the public listener
	debugBase string // http://host:port of the -debug-addr listener
	log       *os.File
}

// freeAddr returns a localhost address that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// serverWorkers is the server's engine worker count (-workers), in the
// child server and the in-process one alike.
const serverWorkers = 2

// startServer launches bin with serverWorkers workers, a job directory, and a
// localhost debug listener for memstats; cacheBytes > 0 sets the result
// cache budget.
func startServer(bin, jobDir, logPath string, cacheBytes int64) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debug, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addr, "-debug-addr", debug, "-workers", strconv.Itoa(serverWorkers),
		"-job-dir", jobDir, "-max-jobs", "1000000",
	}
	if cacheBytes > 0 {
		args = append(args, "-cache-bytes", strconv.FormatInt(cacheBytes, 10))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		cancel()
		_ = log.Close() // the start error is the one to report
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return &child{cmd: cmd, cancel: cancel, base: "http://" + addr, debugBase: "http://" + debug, log: log}, nil
}

// exited reports whether the process has exited (a zombie awaiting
// Wait, or gone).
func (c *child) exited() bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return true
	}
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	return len(fields) == 0 || fields[0] == "Z"
}

// waitHealthy polls /healthz until it answers 200.
func (c *child) waitHealthy(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.exited() {
			return fmt.Errorf("server exited during start-up (log %s)", c.log.Name())
		}
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the drain. It reports anything but
// a clean zero exit as an error.
func (c *child) stop() error {
	c.cancel()
	// Wait reports the cancellation itself as an error even after a
	// clean exit, so the exit status decides.
	_ = c.cmd.Wait()
	_ = c.log.Close() // written by the child only
	if st := c.cmd.ProcessState; st == nil || !st.Success() {
		return fmt.Errorf("server did not exit cleanly on SIGTERM: %v (log %s)", c.cmd.ProcessState, c.log.Name())
	}
	return nil
}

// kill ends the process without a drain (error paths only).
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait() // killed on purpose; the status is moot
	_ = c.log.Close()
	c.cancel()
}

// procCPU returns the process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// procMem returns a /proc/<pid>/status memory field (VmHWM, VmRSS) in
// MiB.
func procMem(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s for pid %d", field, pid)
}

// withRSS runs f while sampling the process's VmRSS every interval and
// returns the samples.
func withRSS(pid int, interval time.Duration, f func()) []float64 {
	var samples []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if v, err := procMem(pid, "VmRSS"); err == nil {
				samples = append(samples, v)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	f()
	close(stop)
	wg.Wait()
	return samples
}

// serverVars is the subset of /debug/vars the benchmark reads: Go
// runtime memstats and the service counters published under "serve".
type serverVars struct {
	Memstats struct {
		TotalAlloc    uint64
		NumGC         uint32
		GCCPUFraction float64
	} `json:"memstats"`
	Serve struct {
		Cache struct {
			Hits, Misses, Evictions int64
		} `json:"cache"`
		Jobs struct {
			JournalFsyncs int64 `json:"journal_fsyncs"`
		} `json:"jobs"`
	} `json:"serve"`
}

func (c *child) vars(hc *http.Client) (serverVars, error) {
	var v serverVars
	resp, err := hc.Get(c.debugBase + "/debug/vars")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("/debug/vars: %s", resp.Status)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// copyDir copies a flat job directory (journals and result blobs).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
