#include "common/table.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace imc {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    require(!headers_.empty(), "Table: need at least one column");
}

void
Table::add_row(std::vector<std::string> cells)
{
    require(cells.size() == headers_.size(),
            "Table: row width does not match header width");
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream& os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto rule = [&]() {
        os << '+';
        for (std::size_t w : widths)
            os << repeat('-', w + 2) << '+';
        os << '\n';
    };
    auto line = [&](const std::vector<std::string>& cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << ' ' << pad_right(cells[c], widths[c]) << " |";
        os << '\n';
    };

    rule();
    line(headers_);
    rule();
    for (const auto& row : rows_)
        line(row);
    rule();
}

} // namespace imc
