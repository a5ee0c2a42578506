package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running rchserve process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time

	mu     sync.Mutex
	stderr bytes.Buffer
	done   chan struct{} // closed when stderr hits EOF
}

// startServer launches rchserve on a free loopback port and returns once
// it is listening.
func startServer(bin, dir string, args ...string) (*server, error) {
	args = append([]string{"-listen=127.0.0.1:0"}, args...)
	s := &server{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	s.cmd.Dir = dir
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rchserve: %w", err)
	}
	addr := make(chan string, 1)
	go s.readStderr(pipe, addr)
	select {
	case a := <-addr:
		s.addr = a
		return s, nil
	case <-s.done:
	case <-time.After(30 * time.Second):
	}
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
	return nil, fmt.Errorf("rchserve did not start listening: %s", s.log())
}

// readStderr keeps the server's log and reports its listen address.
func (s *server) readStderr(r io.Reader, addr chan<- string) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.stderr.WriteString(line + "\n")
		s.mu.Unlock()
		if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
			addr <- strings.Fields(rest)[0]
			sent = true
		}
	}
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(s.stderr.String())
}

// stopped is how a server ended.
type stopped struct {
	code   int
	cpu    time.Duration
	maxRSS int64
	log    string
}

// stop sends SIGTERM, which asks rchserve to drain, and waits for it to
// exit.
func (s *server) stop() (stopped, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	timer := time.AfterFunc(60*time.Second, func() { s.cmd.Process.Kill() })
	defer timer.Stop()
	<-s.done // Wait closes the pipe, so the log is read to EOF first
	err := s.cmd.Wait()
	st := stopped{log: s.log()}
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			return st, fmt.Errorf("wait rchserve: %w", err)
		}
	}
	st.code = s.cmd.ProcessState.ExitCode()
	st.cpu, st.maxRSS = usage(s.cmd)
	return st, nil
}
