// Package errgroup provides a minimal dependency-free analog of
// golang.org/x/sync/errgroup: a group of goroutines whose first error is
// collected and returned by Wait. The engine's checkpoint flush runs its
// three tables through a Group.
package errgroup

import "sync"

// Group runs a set of goroutines and reports the first non-nil error
// returned by any of them. The zero value is ready to use.
type Group struct {
	wg   sync.WaitGroup
	once sync.Once
	err  error
}

// Go runs fn in a new goroutine. The first error returned by any fn is
// remembered and returned by Wait; later errors are discarded.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

// Wait blocks until every goroutine started with Go has returned, then
// returns the first error, if any.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}
