// The benchmark is a module of its own so the root module's build and
// tests do not include it; the oestm/ path prefix keeps the repository's
// internal packages importable.
module oestm/bench

go 1.24

require oestm v0.0.0

replace oestm => ../
