#include "harness/report.hh"

#include <algorithm>
#include <cmath>

#include "base/str.hh"
#include "harness/experiment.hh"

namespace loopsim
{

void
printFigure(std::ostream &os, const FigureData &fig, ValueFormat format)
{
    os << fig.title << "\n";
    if (!fig.valueUnit.empty())
        os << "(values: " << fig.valueUnit << ")\n";

    std::size_t label_w = 9;
    for (const auto &l : fig.rowLabels)
        label_w = std::max(label_w, l.size() + 1);

    std::size_t col_w = 9;
    for (const auto &c : fig.columns)
        col_w = std::max(col_w, c.label.size() + 2);

    os << padRight("", label_w);
    for (const auto &c : fig.columns)
        os << padLeft(c.label, col_w);
    os << "\n";

    for (std::size_t row = 0; row < fig.rowLabels.size(); ++row) {
        os << padRight(fig.rowLabels[row], label_w);
        for (const auto &c : fig.columns) {
            std::string cell = "-";
            if (row < c.values.size()) {
                // Fail-soft runs leave tagged NaN points; render the
                // verdict ("fail" / "crash" / "timeout") instead of
                // printing "nan".
                if (!std::isfinite(c.values[row]))
                    cell = failKindName(pointFailKind(c.values[row]));
                else if (format == ValueFormat::Percent)
                    cell = formatPercent(c.values[row], 1);
                else
                    cell = formatDouble(c.values[row], 3);
            }
            os << padLeft(cell, col_w);
        }
        os << "\n";
    }
    if (!fig.failures.empty()) {
        os << "failed points:\n";
        for (const auto &f : fig.failures)
            os << "  " << f << "\n";
    }
    os << "\n";
}

void
printCsv(std::ostream &os, const FigureData &fig)
{
    os << "label";
    for (const auto &c : fig.columns)
        os << "," << c.label;
    os << "\n";
    for (std::size_t row = 0; row < fig.rowLabels.size(); ++row) {
        os << fig.rowLabels[row];
        for (const auto &c : fig.columns) {
            os << ",";
            // Failed (NaN) points become empty CSV cells.
            if (row < c.values.size() && std::isfinite(c.values[row]))
                os << formatDouble(c.values[row], 6);
        }
        os << "\n";
    }
}

} // namespace loopsim
