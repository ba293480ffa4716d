package feature

// CountLineSets makes every line-set preparation of every Tables add one to
// *n, until restore is called.
func CountLineSets(n *int) (restore func()) {
	old := onLineSet
	onLineSet = func() { *n++ }
	return func() { onLineSet = old }
}
