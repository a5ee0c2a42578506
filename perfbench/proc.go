package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"syscall"
	"time"
)

// procRun is one finished child process: its wall time from start to
// exit, its own user+sys CPU and peak RSS from wait4's rusage, and its
// output.
type procRun struct {
	Wall   time.Duration
	CPU    time.Duration
	MaxRSS int64 // bytes
	Code   int
	Stdout []byte
	Stderr []byte
}

// usage reads CPU and peak RSS from an exited command.
func usage(cmd *exec.Cmd) (cpu time.Duration, maxRSS int64) {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss * 1024 // Linux reports ru_maxrss in KiB
}

// runProc runs bin with args in dir and waits for it to exit. A non-zero
// exit is not an error here: callers judge the code.
func runProc(dir, bin string, args ...string) (procRun, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return procRun{}, fmt.Errorf("start %s: %w", bin, err)
	}
	err := cmd.Wait()
	r := procRun{Wall: time.Since(t0), Stdout: stdout.Bytes(), Stderr: stderr.Bytes()}
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			return r, fmt.Errorf("wait %s: %w", bin, err)
		}
	}
	r.Code = cmd.ProcessState.ExitCode()
	r.CPU, r.MaxRSS = usage(cmd)
	return r, nil
}

// processCPU returns this process's own user+sys CPU so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
