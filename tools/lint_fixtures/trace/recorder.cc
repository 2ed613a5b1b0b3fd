// Fixture: the event stream's live view, the one raw std::cerr
// loop_lint.py allows outside the logging layer. Never compiled.

#include <iostream>
#include <string>

void liveLine(const std::string &line) { std::cerr << line; }
