// Adapters for the frozen bench/trace.go, which still calls them. Nothing
// else may. ROADMAP item 2(II), the next change to bench/, deletes this file
// and ExecOptions.Serving, a field bench/ sets that nothing reads.

package core

// Close does nothing: the engine owns no goroutine or other resource that
// outlives a call.
func (e *Engine) Close() {}
