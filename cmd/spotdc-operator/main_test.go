package main

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spotdc/internal/metrics"
)

// TestBinariesEndToEnd drives the real binaries as separate processes — the
// flag wiring no library test reaches: an operator with durable state, a
// journal, the inline auditor, the emergency responder and a metrics
// endpoint serves one binary-wire tenant for three slots; spotdc-audit
// replays the journal clean; a restarted operator recovers the state
// directory and resumes after the last committed slot.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries and runs ≈ 7 s of wall-clock slots")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator),
		"spotdc/cmd/spotdc-operator", "spotdc/cmd/spotdc-tenant", "spotdc/cmd/spotdc-audit")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	work := t.TempDir()
	stateDir := filepath.Join(work, "state")
	journal := filepath.Join(work, "slots.jsonl")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	operatorArgs := func(slots string) []string {
		return []string{"-listen", "127.0.0.1:0", "-slots", slots, "-slot-seconds", "1",
			"-state-dir", stateDir, "-events", journal, "-audit",
			"-emergency", "-metrics-addr", "127.0.0.1:0"}
	}

	// First lifetime: three slots with a binary-wire tenant bidding.
	op := startOperator(ctx, t, filepath.Join(bin, "spotdc-operator"), operatorArgs("3"))
	tenant := exec.CommandContext(ctx, filepath.Join(bin, "spotdc-tenant"),
		"-connect", op.addr, "-name", "Count-1", "-rack", "O-1",
		"-slot-seconds", "1", "-slots", "3", "-wire", "binary")
	if out, err := tenant.CombinedOutput(); err != nil {
		t.Fatalf("spotdc-tenant: %v\n%s", err, out)
	}
	op.wait(t)
	for _, want := range []string{"audit clean", "serving metrics on http://127.0.0.1:", "emergency responder: 0 emergencies"} {
		if !strings.Contains(op.log(), want) {
			t.Errorf("operator log lacks %q:\n%s", want, op.log())
		}
	}
	events := readJournal(t, journal)
	if len(events) != 3 {
		t.Fatalf("journal has %d slot events, want 3", len(events))
	}
	bids := 0
	for i, ev := range events {
		if ev.Slot != i {
			t.Errorf("event %d is slot %d", i, ev.Slot)
		}
		bids += ev.Bids
	}
	if bids == 0 {
		t.Error("no slot collected the tenant's bid")
	}
	runAudit(ctx, t, filepath.Join(bin, "spotdc-audit"), journal)

	// Second lifetime: recover from the state directory and resume at slot 3.
	op = startOperator(ctx, t, filepath.Join(bin, "spotdc-operator"), operatorArgs("1"))
	op.wait(t)
	if !strings.Contains(op.log(), "resuming at slot 3") {
		t.Fatalf("restarted operator did not resume after slot 2:\n%s", op.log())
	}
	if events = readJournal(t, journal); len(events) != 4 || events[3].Slot != 3 {
		t.Fatalf("journal after restart: %d events, want slots 0-3", len(events))
	}
	runAudit(ctx, t, filepath.Join(bin, "spotdc-audit"), journal)
}

// operatorProc is a running spotdc-operator with its stderr captured.
type operatorProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once stderr is drained

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startOperator starts the operator and waits for the address it serves on.
func startOperator(ctx context.Context, t *testing.T, path string, args []string) *operatorProc {
	t.Helper()
	p := &operatorProc{cmd: exec.CommandContext(ctx, path, args...), done: make(chan struct{})}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr.WriteString(line + "\n")
			p.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving market on "); ok {
				addr, _, _ := strings.Cut(rest, ",")
				addrc <- addr
			}
		}
	}()
	select {
	case p.addr = <-addrc:
	case <-p.done:
		_ = p.cmd.Wait()
		t.Fatalf("operator exited before serving:\n%s", p.log())
	case <-ctx.Done():
		t.Fatal("operator never started serving")
	}
	return p
}

// wait requires the operator to exit 0.
func (p *operatorProc) wait(t *testing.T) {
	t.Helper()
	<-p.done
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("spotdc-operator: %v\n%s", err, p.log())
	}
}

func (p *operatorProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

func readJournal(t *testing.T, path string) []metrics.SlotEvent {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, events, err := metrics.ReadJournal(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return events
}

func runAudit(ctx context.Context, t *testing.T, path, journal string) {
	t.Helper()
	out, err := exec.CommandContext(ctx, path, journal).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "OK — every invariant held") {
		t.Fatalf("spotdc-audit %s: %v\n%s", journal, err, out)
	}
}
