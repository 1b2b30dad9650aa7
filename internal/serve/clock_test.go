package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stepClock is a test clock that advances step on every read, so a spin's
// budget counts the spinner's own polls — spinBudget/step of them, however
// the spinner is scheduled — and a measured wait still grows. Sleep and
// After advance it by their span and return at once. onRead, when set, runs
// after every read: a test's hook for acting between two polls of a spin.
// Set onRead only while nothing but the test's own goroutine reads the
// clock.
type stepClock struct {
	base    time.Time
	step    time.Duration
	elapsed atomic.Int64 // nanoseconds past base
	onRead  func()
}

func newStepClock() *stepClock {
	return &stepClock{base: time.Now(), step: time.Microsecond}
}

func (c *stepClock) advance(d time.Duration) time.Time {
	return c.base.Add(time.Duration(c.elapsed.Add(int64(d))))
}

func (c *stepClock) Now() time.Time {
	now := c.advance(c.step)
	if c.onRead != nil {
		c.onRead()
	}
	return now
}

func (c *stepClock) Sleep(d time.Duration) { c.advance(d) }

func (c *stepClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- c.advance(d)
	return ch
}

// TestServeReadsTimeThroughItsClock pins the clock seam: outside clock.go
// and the HTTP load generator (loadgen.go, a client of the server), no
// non-test file of the package reads the time or waits on it except through
// a Server's clock. The two tickers that drive background work — the
// failure detector's and the maintenance loop's — stay real, and only
// there.
func TestServeReadsTimeThroughItsClock(t *testing.T) {
	banned := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true,
		"After": true, "AfterFunc": true, "NewTimer": true, "Tick": true}
	tickers := map[string]bool{"detector": true, "maintenanceLoop": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var parsed, tickerSites int
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "clock.go" || name == "loadgen.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		pkg := "" // the file's name for package time, if it imports it
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				pkg = "time"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			continue
		}
		for _, decl := range f.Decls {
			fn := ""
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = d.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg {
					return true
				}
				switch fun := sel.Sel.Name; {
				case banned[fun]:
					t.Errorf("%s: time.%s outside the server's clock", fset.Position(sel.Pos()), fun)
				case fun == "NewTicker" && !tickers[fn]:
					t.Errorf("%s: time.NewTicker in %s, want tickers only in %v", fset.Position(sel.Pos()), fn, tickers)
				case fun == "NewTicker":
					tickerSites++
				}
				return true
			})
		}
	}
	if parsed < 5 || tickerSites != len(tickers) {
		t.Fatalf("parsed %d files and found %d tickers: the package is not where this test expects it", parsed, tickerSites)
	}
}
