package flow

// CrossvalInstance exposes crossvalInstance to the external test package.
var CrossvalInstance = crossvalInstance
