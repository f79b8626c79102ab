package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is a compose-server child process. Its stdout and stderr go to
// a log file under the output directory.
type server struct {
	cmd     *exec.Cmd
	addr    string
	admin   string
	logPath string
	exited  chan struct{} // closed once Wait returned
}

// live tracks every running child so a failing benchmark can kill them
// all (see killAll).
var live struct {
	sync.Mutex
	m map[*server]struct{}
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it, so a start can lose it to another
// process; startServer retries.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns bin with its default flags plus addresses (and a WAL
// directory when walDir is set) and waits until it answers a ping.
func startServer(bin, walDir, logPath string) (*server, error) {
	var err error
	for try := 0; try < 3; try++ {
		var s *server
		if s, err = spawn(bin, walDir, logPath); err != nil {
			continue
		}
		if err = s.ready(); err == nil {
			return s, nil
		}
		s.kill()
	}
	return nil, fmt.Errorf("start %s: %w", bin, err)
}

func spawn(bin, walDir, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	admin, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := []string{"-addr", addr, "-admin-addr", admin}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir, "-fsync=false")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, addr: addr, admin: admin, logPath: logPath, exited: make(chan struct{})}
	live.Lock()
	if live.m == nil {
		live.m = map[*server]struct{}{}
	}
	live.m[s] = struct{}{}
	live.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is judged by term (drain line) or irrelevant after kill
		live.Lock()
		delete(live.m, s)
		live.Unlock()
		close(s.exited)
	}()
	return s, nil
}

// ready polls until the server answers a ping or exits.
func (s *server) ready() error {
	deadline := time.Now().Add(60 * time.Second) // WAL replay of a full run's log can take seconds
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return errors.New("server exited before serving (see " + s.logPath + ")")
		default:
		}
		if c, err := dial(s.addr); err == nil {
			err = c.ping()
			c.close()
			if err == nil {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not ready in time")
}

// term stops the server gracefully and requires it to report a complete
// drain.
func (s *server) term() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.kill()
		return errors.New("server ignored SIGTERM")
	}
	log, err := os.ReadFile(s.logPath)
	if err != nil {
		return err
	}
	if !bytes.Contains(log, []byte("compose-server: drained")) {
		return errors.New("server exited without reporting a drain (see " + s.logPath + ")")
	}
	return nil
}

// kill stops the server at once (the crash of the durability check, and
// the clean-up of every failure path) and waits for it to be gone.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.exited
}

// killAll kills every child still running.
func killAll() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 100

// cpuSeconds returns the user+system CPU time the server has used.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("malformed /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return float64(ut+st) / clockTick, nil
}

// totalAlloc returns the server's cumulative allocated bytes. The admin
// plane's /metrics has no Go runtime series, so this reads the
// runtime.MemStats dump at the end of the text heap profile.
func (s *server) totalAlloc() (uint64, error) {
	resp, err := http.Get("http://" + s.admin + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	const tag = "# TotalAlloc = "
	i := bytes.Index(body, []byte(tag))
	if i < 0 {
		return 0, errors.New("heap profile has no TotalAlloc line")
	}
	rest := body[i+len(tag):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strconv.ParseUint(string(rest), 10, 64)
}
