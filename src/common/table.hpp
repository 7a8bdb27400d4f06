#ifndef IMC_COMMON_TABLE_HPP
#define IMC_COMMON_TABLE_HPP

/**
 * @file
 * ASCII table builder used by the benchmark harnesses to print
 * paper-style tables.
 */

#include <ostream>
#include <string>
#include <vector>

namespace imc {

/**
 * A simple column-aligned text table.
 *
 * Usage:
 * @code
 *   Table t({"Workload", "Best policy", "Avg. error(%)"});
 *   t.add_row({"M.milc", "N+1 MAX", "3.50"});
 *   t.print(std::cout);
 * @endcode
 */
class Table {
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have exactly as many cells as headers. */
    void add_row(std::vector<std::string> cells);

    /** Number of data rows. */
    std::size_t rows() const { return rows_.size(); }

    /** Render with box-drawing separators. */
    void print(std::ostream& os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace imc

#endif // IMC_COMMON_TABLE_HPP
