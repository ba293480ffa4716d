package table

// NewReference exposes the reference table builder to the external tests,
// which build it from generated corpora (package corpus imports table).
var NewReference = newReference
