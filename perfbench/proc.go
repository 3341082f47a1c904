package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// serverProc is the running server process and its command channel.
type serverProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	addr  string
	ended bool
}

// startServer starts "perfbench serve args..." and waits until it
// listens.
func startServer(args []string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"serve"}, args...)...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16)}
	line, err := p.out.ReadString('\n')
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("server did not start: %w", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
	if !ok {
		p.kill()
		return nil, fmt.Errorf("server said %q, want ready", strings.TrimSpace(line))
	}
	p.addr = addr
	return p, nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// call sends one command and returns the one-line reply.
func (p *serverProc) call(cmd string) (string, error) {
	if _, err := io.WriteString(p.in, cmd+"\n"); err != nil {
		return "", fmt.Errorf("server %s: %w", cmd, err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("server %s: %w", cmd, err)
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "error ") {
		return "", fmt.Errorf("server %s: %s", cmd, line)
	}
	return line, nil
}

func (p *serverProc) stats() (ServerStats, error) {
	var st ServerStats
	line, err := p.call("stats")
	if err != nil {
		return st, err
	}
	err = json.Unmarshal([]byte(line), &st)
	return st, err
}

func (p *serverProc) setTiming(on bool) error {
	arg := "timing 0"
	if on {
		arg = "timing 1"
	}
	_, err := p.call(arg)
	return err
}

// wait reaps the process once.
func (p *serverProc) wait() error {
	if p.ended {
		return nil
	}
	p.ended = true
	return p.cmd.Wait()
}

// kill ends the process with SIGKILL and reaps it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	_ = p.wait() // a killed process reports its signal as an error
}

// stop asks the server to drain and exit, killing it if it takes longer
// than ten seconds.
func (p *serverProc) stop() error {
	p.in.Close()
	exited := make(chan error, 1)
	go func() { exited <- p.wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Signal(syscall.SIGKILL)
		<-exited
		return fmt.Errorf("server did not drain within 10s")
	}
}
