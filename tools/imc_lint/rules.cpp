#include "internal.hpp"
#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <optional>

/**
 * @file
 * The per-file rule implementations plus the token-stream extraction
 * that feeds the phase-2 project passes. Each rule is a free function
 * over a FileContext appending Diagnostics; run_rules() dispatches by
 * file category. Everything works on the token stream from lexer.cpp,
 * so comments and string literals can never fake a violation — with
 * the exception of header-guard and include-order, which are
 * line-based because preprocessor structure is.
 */

namespace imc::lint {

namespace {

using Tokens = std::vector<Token>;

bool
is_ident(const Token& t, const char* text)
{
    return t.kind == TokKind::Ident && t.text == text;
}

std::string
lower(const std::string& s)
{
    std::string out = s;
    for (char& c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/**
 * True when tokens[i] is used as a function call: followed by '(',
 * not a member access (x.time(...)), not a declaration (the previous
 * token is a type name), and qualified — if at all — by std or the
 * global namespace. C++ keywords that legally precede a call keep
 * counting as calls (return rand();).
 */
bool
is_call(const Tokens& toks, std::size_t i)
{
    if (i + 1 >= toks.size() || toks[i + 1].text != "(")
        return false;
    if (i == 0)
        return true;
    const Token& prev = toks[i - 1];
    if (prev.text == "." || prev.text == "->")
        return false;
    if (prev.text == "::") {
        if (i < 2)
            return true; // ::rand() — global qualifier
        const Token& qual = toks[i - 2];
        return is_ident(qual, "std");
    }
    if (prev.kind == TokKind::Ident) {
        // "double time(" is a declaration; "return time(" a call.
        static const std::set<std::string> kCallPrefixKeywords = {
            "return", "co_return", "co_yield", "throw", "case",
            "else",   "do",        "and",      "or",    "not"};
        return kCallPrefixKeywords.count(prev.text) > 0;
    }
    // '>' closes a template type: "std::vector<int> f(" declares.
    return prev.text != ">";
}

void
rule_determinism_rand(const FileContext& ctx,
                      std::vector<Diagnostic>& out)
{
    static const std::set<std::string> kBannedCalls = {
        "rand",     "srand",        "rand_r",    "drand48",
        "lrand48",  "mrand48",      "time",      "clock",
        "gettimeofday", "localtime", "gmtime"};
    // Banned in any position (types / static members).
    static const std::set<std::string> kBannedNames = {
        "random_device", "system_clock"};
    const Tokens& toks = ctx.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::Ident)
            continue;
        if (kBannedNames.count(t.text) > 0 &&
            !(i > 0 && (toks[i - 1].text == "." ||
                        toks[i - 1].text == "->"))) {
            out.push_back({"determinism-rand", ctx.path, t.line,
                           "'" + t.text +
                               "' is nondeterministic across runs; "
                               "derive randomness from imc::Rng "
                               "seeds so figures stay reproducible"});
            continue;
        }
        if (kBannedCalls.count(t.text) > 0 && is_call(toks, i)) {
            out.push_back({"determinism-rand", ctx.path, t.line,
                           "call to '" + t.text +
                               "' injects wall-clock/libc state; "
                               "recorded figures must depend only on "
                               "seeds"});
        }
        // "random" only when explicitly ::random or std::random.
        if (t.text == "random" && i >= 1 && toks[i - 1].text == "::" &&
            is_call(toks, i)) {
            out.push_back({"determinism-rand", ctx.path, t.line,
                           "call to 'random' injects libc RNG state; "
                           "use imc::Rng"});
        }
    }
}

/**
 * Collect names declared with an unordered_map/unordered_set type in
 * @p toks: after the template argument list closes, the next
 * identifier is the variable. Misses aliases on purpose — the taint
 * pass is a tripwire for the common direct case, not alias chasing.
 */
std::set<std::string>
unordered_decl_names(const Tokens& toks)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!is_ident(toks[i], "unordered_map") &&
            !is_ident(toks[i], "unordered_set"))
            continue;
        std::size_t j = i + 1;
        if (j >= toks.size() || toks[j].text != "<")
            continue;
        int depth = 0;
        for (; j < toks.size(); ++j) {
            if (toks[j].text == "<")
                ++depth;
            else if (toks[j].text == ">") {
                if (--depth == 0) {
                    ++j;
                    break;
                }
            } else if (toks[j].text == ">>") {
                depth -= 2;
                if (depth <= 0) {
                    ++j;
                    break;
                }
            }
        }
        // Skip reference/pointer/cv tokens between the type and the
        // declared name: "const unordered_map<...>& weights".
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "&&" ||
                toks[j].text == "*" || is_ident(toks[j], "const")))
            ++j;
        if (j < toks.size() && toks[j].kind == TokKind::Ident)
            names.insert(toks[j].text);
    }
    return names;
}

// --- determinism-taint ------------------------------------------------
//
// An intra-function dataflow pass over the token stream. Lattice:
// a local name is either clean or tainted-with-a-reason; joins keep
// the first reason (deterministically — statements are visited in
// token order). Sources introduce taint, assignments/appends
// propagate it, std::sort/std::stable_sort sanitizes its arguments
// (the sort-then-emit idiom is the blessed fix), and a separate scan
// reports taint reaching a sink.
//
//   sources  unordered-container iteration (range-for or .begin()),
//            reinterpret_cast to an integer type, hashing 'this',
//            thread ids (this_thread::get_id, pthread_self, gettid)
//   sinks    stream insertion (serialized output), digest /
//            fingerprint / checksum values, LatencyRecorder-style
//            .add()/.record(), and RNG .fork() name arguments
//
// Scope is one function body: cross-function flows are out of reach
// by design (the pass must stay dependency-free and fast), which
// keeps false positives near zero at the cost of missing laundering
// through helpers — the same trade the per-file rules make.

struct TaintInfo {
    std::string why;
};

class TaintPass {
  public:
    TaintPass(const FileContext& ctx, std::vector<Diagnostic>& out)
        : ctx_(ctx), toks_(ctx.lex.tokens), out_(out)
    {
        unordered_ = unordered_decl_names(toks_);
        unordered_.insert(ctx.extra_unordered_names.begin(),
                          ctx.extra_unordered_names.end());
    }

    void run()
    {
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            if (toks_[i].text != "{" || toks_[i].kind != TokKind::Punct)
                continue;
            if (!opens_function(i))
                continue;
            const std::size_t end = match_brace(i);
            analyze_body(i, end);
            i = end;
        }
    }

  private:
    /** Specifier idents that may sit between ')' and the body '{'. */
    static bool is_specifier(const Token& t)
    {
        static const std::set<std::string> kSpec = {
            "const", "noexcept", "override", "final", "mutable"};
        return t.kind == TokKind::Ident && kSpec.count(t.text) > 0;
    }

    /** True when the '{' at @p i opens a function (or lambda) body. */
    bool opens_function(std::size_t i) const
    {
        if (i == 0)
            return false;
        std::size_t j = i - 1;
        while (j > 0 && is_specifier(toks_[j]))
            --j;
        if (toks_[j].text != ")")
            return false;
        // Find the matching '(' and look at what introduced it:
        // control-flow keywords open statement parens, not
        // signatures. Constructor init lists still end in ')' of the
        // last initializer, which is fine — the body is a body.
        int depth = 0;
        while (j > 0) {
            if (toks_[j].text == ")")
                ++depth;
            else if (toks_[j].text == "(" && --depth == 0)
                break;
            --j;
        }
        if (j == 0)
            return false;
        const Token& before = toks_[j - 1];
        static const std::set<std::string> kControl = {
            "if", "for", "while", "switch", "catch"};
        if (before.kind == TokKind::Ident &&
            kControl.count(before.text) > 0)
            return false;
        return before.kind == TokKind::Ident || before.text == "]";
    }

    std::size_t match_brace(std::size_t open) const
    {
        int depth = 0;
        for (std::size_t j = open; j < toks_.size(); ++j) {
            if (toks_[j].text == "{")
                ++depth;
            else if (toks_[j].text == "}" && --depth == 0)
                return j;
        }
        return toks_.size() - 1;
    }

    /** Token ranges of the ';'/'{'/'}'-delimited statements. */
    static std::vector<std::pair<std::size_t, std::size_t>>
    statements(const Tokens& toks, std::size_t open, std::size_t close)
    {
        std::vector<std::pair<std::size_t, std::size_t>> out;
        std::size_t start = open + 1;
        for (std::size_t j = open + 1; j < close; ++j) {
            const std::string& t = toks[j].text;
            if (t == ";" || t == "{" || t == "}") {
                if (j > start)
                    out.emplace_back(start, j);
                start = j + 1;
            }
        }
        if (close > start)
            out.emplace_back(start, close);
        return out;
    }

    /** Taint (if any) carried by the expression tokens [b, e). */
    std::optional<TaintInfo> expr_taint(std::size_t b,
                                        std::size_t e) const
    {
        for (std::size_t j = b; j < e; ++j) {
            const Token& t = toks_[j];
            if (t.kind != TokKind::Ident)
                continue;
            const auto it = tainted_.find(t.text);
            if (it != tainted_.end() &&
                !(j > b && (toks_[j - 1].text == "." ||
                            toks_[j - 1].text == "->")))
                return it->second;
            if (unordered_.count(t.text) > 0 && j + 2 < e &&
                (toks_[j + 1].text == "." ||
                 toks_[j + 1].text == "->") &&
                (is_ident(toks_[j + 2], "begin") ||
                 is_ident(toks_[j + 2], "cbegin") ||
                 is_ident(toks_[j + 2], "rbegin")))
                return TaintInfo{"iteration over unordered container "
                                 "'" +
                                 t.text + "'"};
            if (t.text == "reinterpret_cast" &&
                cast_targets_integer(j))
                return TaintInfo{"a pointer-to-integer cast"};
            if (lower(t.text).find("hash") != std::string::npos &&
                call_args_contain_this(j))
                return TaintInfo{"hashing 'this'"};
            if (t.text == "get_id" || t.text == "pthread_self" ||
                t.text == "gettid")
                return TaintInfo{"a thread id"};
        }
        return std::nullopt;
    }

    bool cast_targets_integer(std::size_t j) const
    {
        static const std::set<std::string> kIntTypes = {
            "uintptr_t", "intptr_t", "size_t",   "uint64_t",
            "uint32_t",  "unsigned", "long",     "int",
            "int64_t",   "ptrdiff_t"};
        if (j + 1 >= toks_.size() || toks_[j + 1].text != "<")
            return false;
        for (std::size_t k = j + 2;
             k < toks_.size() && toks_[k].text != ">"; ++k)
            if (toks_[k].kind == TokKind::Ident &&
                kIntTypes.count(toks_[k].text) > 0)
                return true;
        return false;
    }

    /** Does the call opened near @p j pass 'this' as an argument? */
    bool call_args_contain_this(std::size_t j) const
    {
        // Allow std::hash<T*>{}(p): skip up to a handful of tokens to
        // the first '(' and scan its depth-1 argument list.
        std::size_t k = j + 1;
        const std::size_t limit =
            std::min(toks_.size(), j + 12);
        while (k < limit && toks_[k].text != "(")
            ++k;
        if (k >= limit)
            return false;
        int depth = 0;
        for (; k < toks_.size(); ++k) {
            if (toks_[k].text == "(")
                ++depth;
            else if (toks_[k].text == ")") {
                if (--depth == 0)
                    return false;
            } else if (is_ident(toks_[k], "this"))
                return true;
        }
        return false;
    }

    static bool is_assign_op(const Token& t)
    {
        static const std::set<std::string> kOps = {
            "=",  "+=", "-=", "*=", "/=",  "%=",
            "&=", "|=", "^=", ">>=", "<<="};
        return t.kind == TokKind::Punct && kOps.count(t.text) > 0;
    }

    /** The declared/assigned name left of the op at @p op. */
    std::optional<std::string> lhs_name(std::size_t b,
                                        std::size_t op) const
    {
        std::size_t j = op;
        while (j > b) {
            --j;
            if (toks_[j].text == "]") { // arr[i] = ... → arr
                int depth = 0;
                while (j > b) {
                    if (toks_[j].text == "]")
                        ++depth;
                    else if (toks_[j].text == "[" && --depth == 0)
                        break;
                    --j;
                }
                continue;
            }
            if (toks_[j].kind == TokKind::Ident)
                return toks_[j].text;
            if (toks_[j].text != ")")
                return std::nullopt;
            return std::nullopt;
        }
        return std::nullopt;
    }

    void taint(const std::string& name, const TaintInfo& info)
    {
        if (tainted_.emplace(name, info).second)
            changed_ = true;
    }

    /** One propagation sweep over the body; sets changed_. */
    void propagate(std::size_t open, std::size_t close)
    {
        // Range-for headers: for (DECL : RANGE).
        for (std::size_t j = open + 1; j < close; ++j) {
            if (!is_ident(toks_[j], "for") || j + 1 >= close ||
                toks_[j + 1].text != "(")
                continue;
            int depth = 0;
            std::size_t colon = 0, rp = 0;
            for (std::size_t k = j + 1; k < close; ++k) {
                if (toks_[k].text == "(")
                    ++depth;
                else if (toks_[k].text == ")") {
                    if (--depth == 0) {
                        rp = k;
                        break;
                    }
                } else if (toks_[k].text == ":" && depth == 1)
                    colon = k;
            }
            if (colon == 0 || rp == 0)
                continue;
            // Ranging over an unordered container IS the iteration —
            // no .begin() spelling required.
            std::optional<TaintInfo> src;
            for (std::size_t k = colon + 1; k < rp && !src; ++k)
                if (toks_[k].kind == TokKind::Ident &&
                    unordered_.count(toks_[k].text) > 0 &&
                    !(k > colon + 1 &&
                      (toks_[k - 1].text == "." ||
                       toks_[k - 1].text == "->")))
                    src = TaintInfo{
                        "iteration over unordered container '" +
                        toks_[k].text + "'"};
            if (!src)
                src = expr_taint(colon + 1, rp);
            // Decl names: a structured binding's [a, b] idents, or
            // the last ident before the ':'.
            std::vector<std::string> decls;
            bool binding = false;
            for (std::size_t k = j + 2; k < colon; ++k) {
                if (toks_[k].text == "[")
                    binding = true;
                else if (toks_[k].text == "]")
                    break;
                else if (binding && toks_[k].kind == TokKind::Ident)
                    decls.push_back(toks_[k].text);
            }
            if (!binding) {
                for (std::size_t k = colon; k > j + 1; --k)
                    if (toks_[k - 1].kind == TokKind::Ident) {
                        decls.push_back(toks_[k - 1].text);
                        break;
                    }
            }
            for (const std::string& d : decls) {
                if (src)
                    taint(d, *src);
                else
                    // A range-for over a clean range is a fresh
                    // binding: it kills any taint a same-named
                    // earlier loop variable left behind.
                    tainted_.erase(d);
            }
        }
        // Straight-line statements.
        for (const auto& [b, e] : statements(toks_, open, close)) {
            // std::sort/std::stable_sort sanitizes its arguments —
            // emitting in sorted order IS the fix.
            for (std::size_t j = b; j < e; ++j) {
                if ((is_ident(toks_[j], "sort") ||
                     is_ident(toks_[j], "stable_sort")) &&
                    j + 1 < e && toks_[j + 1].text == "(") {
                    for (std::size_t k = j + 2;
                         k < e && toks_[k].text != ";"; ++k)
                        if (toks_[k].kind == TokKind::Ident &&
                            tainted_.erase(toks_[k].text) > 0)
                            changed_ = true;
                }
            }
            // Assignment / initialization.
            int depth = 0;
            for (std::size_t j = b; j < e; ++j) {
                if (toks_[j].text == "(" || toks_[j].text == "[")
                    ++depth;
                else if (toks_[j].text == ")" ||
                         toks_[j].text == "]")
                    --depth;
                else if (depth == 0 && is_assign_op(toks_[j])) {
                    const auto name = lhs_name(b, j);
                    const auto src = expr_taint(j + 1, e);
                    if (name && src)
                        taint(*name, *src);
                    break;
                }
            }
            // Container append: V.push_back(tainted) taints V.
            static const std::set<std::string> kAppend = {
                "push_back", "emplace_back", "insert",
                "emplace",   "push",         "append"};
            for (std::size_t j = b; j + 3 < e; ++j) {
                if (toks_[j].kind != TokKind::Ident ||
                    (toks_[j + 1].text != "." &&
                     toks_[j + 1].text != "->") ||
                    toks_[j + 2].kind != TokKind::Ident ||
                    kAppend.count(toks_[j + 2].text) == 0 ||
                    toks_[j + 3].text != "(")
                    continue;
                const auto src = expr_taint(j + 4, e);
                if (src)
                    taint(toks_[j].text, *src);
            }
        }
    }

    /** Names of declared ostream-like / recorder-like locals. */
    void harvest_decls(std::size_t b, std::size_t e)
    {
        static const std::set<std::string> kStreamTypes = {
            "ostream", "ostringstream", "stringstream", "ofstream"};
        for (std::size_t j = b; j < e; ++j) {
            const bool stream_ty =
                toks_[j].kind == TokKind::Ident &&
                kStreamTypes.count(toks_[j].text) > 0;
            const bool recorder_ty =
                is_ident(toks_[j], "LatencyRecorder");
            if (!stream_ty && !recorder_ty)
                continue;
            std::size_t k = j + 1;
            while (k < e &&
                   (toks_[k].text == "&" || toks_[k].text == "*" ||
                    toks_[k].text == "&&" ||
                    is_ident(toks_[k], "const")))
                ++k;
            if (k < e && toks_[k].kind == TokKind::Ident) {
                if (stream_ty)
                    streams_.insert(toks_[k].text);
                else
                    recorders_.insert(toks_[k].text);
            }
        }
    }

    void report(int line, const TaintInfo& info,
                const std::string& sink)
    {
        Diagnostic d{"determinism-taint", ctx_.path, line,
                     "value derived from " + info.why +
                         " flows into " + sink +
                         "; recorded output must be a pure function "
                         "of seeds and config — sort into an ordered "
                         "container or derive a stable key first"};
        for (const Diagnostic& prev : out_)
            if (prev == d)
                return;
        out_.push_back(std::move(d));
    }

    void scan_sinks(std::size_t open, std::size_t close)
    {
        for (const auto& [b, e] : statements(toks_, open, close)) {
            for (std::size_t j = b; j < e; ++j) {
                const Token& t = toks_[j];
                if (t.kind != TokKind::Ident)
                    continue;
                // Stream insertion.
                const bool stream =
                    streams_.count(t.text) > 0 || t.text == "cout" ||
                    t.text == "cerr" || t.text == "clog";
                if (stream && j + 1 < e &&
                    toks_[j + 1].text == "<<") {
                    if (const auto src = expr_taint(j + 2, e))
                        report(t.line, *src, "serialized output");
                    continue;
                }
                // Digest-ish assignment or call argument.
                const std::string lt = lower(t.text);
                const bool digest_name =
                    lt.find("digest") != std::string::npos ||
                    lt.find("fingerprint") != std::string::npos ||
                    lt.find("checksum") != std::string::npos;
                if (digest_name && j + 1 < e) {
                    if (is_assign_op(toks_[j + 1])) {
                        if (const auto src = expr_taint(j + 2, e))
                            report(t.line, *src, "a digest");
                    } else if (toks_[j + 1].text == "(") {
                        if (const auto src = expr_taint(j + 2, e))
                            report(t.line, *src, "a digest");
                    }
                    continue;
                }
                // Recorder .add()/.record()/.observe().
                const bool recorder =
                    recorders_.count(t.text) > 0 ||
                    lt.find("recorder") != std::string::npos;
                if (recorder && j + 3 < e &&
                    (toks_[j + 1].text == "." ||
                     toks_[j + 1].text == "->") &&
                    (is_ident(toks_[j + 2], "add") ||
                     is_ident(toks_[j + 2], "record") ||
                     is_ident(toks_[j + 2], "observe")) &&
                    toks_[j + 3].text == "(") {
                    if (const auto src = expr_taint(j + 4, e))
                        report(t.line, *src, "LatencyRecorder");
                    continue;
                }
                // RNG fork name.
                if (is_ident(t, "fork") && j > b &&
                    (toks_[j - 1].text == "." ||
                     toks_[j - 1].text == "->") &&
                    j + 1 < e && toks_[j + 1].text == "(") {
                    if (const auto src = expr_taint(j + 2, e))
                        report(t.line, *src, "an RNG fork name");
                }
            }
        }
    }

    void analyze_body(std::size_t open, std::size_t close)
    {
        tainted_.clear();
        streams_.clear();
        recorders_.clear();
        // Signature parameters participate (an ostream& parameter is
        // a sink; a tainted parameter cannot be known, so only decls
        // are harvested there).
        std::size_t sig = open;
        while (sig > 0 && is_specifier(toks_[sig - 1]))
            --sig;
        std::size_t lp = sig;
        int depth = 0;
        while (lp > 0) {
            --lp;
            if (toks_[lp].text == ")")
                ++depth;
            else if (toks_[lp].text == "(" && --depth == 0)
                break;
        }
        harvest_decls(lp, sig);
        harvest_decls(open + 1, close);
        for (int round = 0; round < 8; ++round) {
            changed_ = false;
            propagate(open, close);
            if (!changed_)
                break;
        }
        scan_sinks(open, close);
    }

    const FileContext& ctx_;
    const Tokens& toks_;
    std::vector<Diagnostic>& out_;
    std::set<std::string> unordered_;
    std::map<std::string, TaintInfo> tainted_;
    std::set<std::string> streams_;
    std::set<std::string> recorders_;
    bool changed_ = false;
};

void
rule_determinism_taint(const FileContext& ctx,
                       std::vector<Diagnostic>& out)
{
    TaintPass(ctx, out).run();
}

void
rule_banned_number_parse(const FileContext& ctx,
                         std::vector<Diagnostic>& out)
{
    static const std::set<std::string> kBanned = {
        "atoi",    "atof",    "atol",    "atoll",  "strtol",
        "strtoul", "strtoll", "strtoull", "strtod", "strtof",
        "sscanf",  "stoi",    "stol",    "stoll",  "stoul",
        "stoull",  "stof",    "stod",    "stold"};
    const Tokens& toks = ctx.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind == TokKind::Ident &&
            kBanned.count(toks[i].text) > 0 && is_call(toks, i)) {
            out.push_back(
                {"banned-number-parse", ctx.path, toks[i].line,
                 "'" + toks[i].text +
                     "' accepts garbage silently; parse through the "
                     "strict Cli/serialize helpers that reject "
                     "malformed input by flag name"});
        }
    }
}

void
rule_banned_printf(const FileContext& ctx,
                   std::vector<Diagnostic>& out)
{
    static const std::set<std::string> kBanned = {
        "printf",  "fprintf",  "sprintf",  "snprintf", "vprintf",
        "vfprintf", "vsnprintf", "puts",    "fputs",    "putchar",
        "fputc"};
    const Tokens& toks = ctx.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind == TokKind::Ident &&
            kBanned.count(toks[i].text) > 0 && is_call(toks, i)) {
            out.push_back({"banned-printf", ctx.path, toks[i].line,
                           "'" + toks[i].text +
                               "' in library code bypasses the "
                               "stream-based output layer; return "
                               "strings or take a std::ostream&"});
        }
    }
}

void
rule_banned_new_delete(const FileContext& ctx,
                       std::vector<Diagnostic>& out)
{
    const Tokens& toks = ctx.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (is_ident(toks[i], "new")) {
            // "#include <new>" names the header, not an expression.
            if (i >= 3 && toks[i - 1].text == "<" &&
                is_ident(toks[i - 2], "include") &&
                toks[i - 3].text == "#")
                continue;
            out.push_back({"banned-new-delete", ctx.path,
                           toks[i].line,
                           "naked 'new'; use std::make_unique / "
                           "std::make_shared or a container"});
        } else if (is_ident(toks[i], "delete")) {
            // "= delete" declares a deleted function; that is the
            // one legitimate spelling.
            if (i > 0 && toks[i - 1].text == "=")
                continue;
            out.push_back({"banned-new-delete", ctx.path,
                           toks[i].line,
                           "naked 'delete'; ownership belongs to "
                           "RAII types, not call sites"});
        }
    }
}

void
rule_config_error_context(const FileContext& ctx,
                          std::vector<Diagnostic>& out)
{
    const Tokens& toks = ctx.lex.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!is_ident(toks[i], "throw") ||
            !is_ident(toks[i + 1], "ConfigError") ||
            toks[i + 2].text != "(")
            continue;
        bool has_context = false;
        int depth = 0;
        for (std::size_t j = i + 2; j < toks.size(); ++j) {
            if (toks[j].text == "(") {
                ++depth;
            } else if (toks[j].text == ")") {
                if (--depth == 0)
                    break;
            } else if (toks[j].kind == TokKind::Ident) {
                // Identifiers splice runtime values in; std::string
                // scaffolding alone does not.
                if (toks[j].text != "std" && toks[j].text != "string")
                    has_context = true;
            } else if (toks[j].kind == TokKind::String &&
                       toks[j].text.find("--") != std::string::npos) {
                has_context = true; // names the offending flag
            }
        }
        if (!has_context) {
            out.push_back(
                {"config-error-context", ctx.path, toks[i].line,
                 "ConfigError without the offending flag/value; the "
                 "user must see WHAT input was bad, not just that "
                 "something was"});
        }
    }
}

std::string
expected_guard(const std::string& path)
{
    std::string p = path;
    if (p.rfind("src/", 0) == 0)
        p = p.substr(4);
    std::string guard = "IMC_";
    for (const char c : p) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            guard += '_';
    }
    return guard;
}

bool
is_blank(const std::string& s)
{
    return s.find_first_not_of(" \t\r") == std::string::npos;
}

void
rule_header_guard(const FileContext& ctx,
                  std::vector<Diagnostic>& out)
{
    if (ctx.path.size() < 4 ||
        ctx.path.compare(ctx.path.size() - 4, 4, ".hpp") != 0)
        return;
    const std::string guard = expected_guard(ctx.path);
    // First two preprocessor directives must open the guard.
    std::vector<std::pair<int, std::string>> directives;
    for (std::size_t i = 0;
         i < ctx.lines.size() && directives.size() < 2; ++i) {
        const std::string& l = ctx.lines[i];
        const std::size_t pos = l.find_first_not_of(" \t");
        if (pos != std::string::npos && l[pos] == '#')
            directives.emplace_back(static_cast<int>(i) + 1,
                                    l.substr(pos));
    }
    const std::string want_ifndef = "#ifndef " + guard;
    const std::string want_define = "#define " + guard;
    if (directives.empty() || directives[0].second != want_ifndef) {
        out.push_back({"header-guard", ctx.path,
                       directives.empty() ? 1 : directives[0].first,
                       "header must open with '" + want_ifndef + "'"});
        return; // the rest would cascade
    }
    if (directives.size() < 2 ||
        directives[1].second != want_define) {
        out.push_back({"header-guard", ctx.path,
                       directives.size() < 2 ? directives[0].first
                                             : directives[1].first,
                       "'" + want_ifndef + "' must be followed by '" +
                           want_define + "'"});
    }
    // Last non-blank line closes it, naming the guard.
    for (std::size_t i = ctx.lines.size(); i > 0; --i) {
        const std::string& l = ctx.lines[i - 1];
        if (is_blank(l))
            continue;
        if (l.rfind("#endif", 0) != 0 ||
            l.find(guard) == std::string::npos) {
            out.push_back({"header-guard", ctx.path,
                           static_cast<int>(i),
                           "header must close with '#endif // " +
                               guard + "'"});
        }
        break;
    }
}

void
rule_include_order(const FileContext& ctx,
                   std::vector<Diagnostic>& out)
{
    // Convention across the tree: an optional leading quoted group
    // (the file's own header), then every <system> include, then
    // every "project" include — i.e. the kinds sequence must match
    // Q* A* Q*. An angle include after the project group interleaves
    // the groups.
    int phase = 0; // 0: leading Q, 1: A, 2: trailing Q
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& l = ctx.lines[i];
        std::size_t pos = l.find_first_not_of(" \t");
        if (pos == std::string::npos ||
            l.compare(pos, 8, "#include") != 0)
            continue;
        pos = l.find_first_of("<\"", pos + 8);
        if (pos == std::string::npos)
            continue; // computed include; out of scope
        const bool angle = l[pos] == '<';
        if (angle) {
            if (phase == 0)
                phase = 1;
            else if (phase == 2)
                out.push_back(
                    {"include-order", ctx.path,
                     static_cast<int>(i) + 1,
                     "<system> include after the \"project\" "
                     "include group; order is own header, <system>, "
                     "then \"project\""});
        } else {
            if (phase == 1)
                phase = 2;
        }
    }
}

void
rule_obs_gate(const FileContext& ctx, std::vector<Diagnostic>& out)
{
    // The obs implementation itself is the one place allowed to
    // spell the functions out (it defines the macros).
    if (ctx.path.rfind("src/common/obs.", 0) == 0)
        return;
    static const std::set<std::string> kGated = {
        "count",   "gauge_set",     "gauge_max",
        "observe", "trace_counter", "Span"};
    const Tokens& toks = ctx.lex.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (is_ident(toks[i], "obs") && toks[i + 1].text == "::" &&
            toks[i + 2].kind == TokKind::Ident &&
            kGated.count(toks[i + 2].text) > 0) {
            out.push_back(
                {"obs-gate", ctx.path, toks[i].line,
                 "direct call to obs::" + toks[i + 2].text +
                     "; use the IMC_OBS_* macro so IMC_OBS_DISABLED "
                     "builds never evaluate the arguments"});
        }
    }
}

void
rule_fault_gate(const FileContext& ctx, std::vector<Diagnostic>& out)
{
    // The fault implementation itself is the one place allowed to
    // spell the probe entry points out (it defines the macros);
    // control-plane calls (arm/disarm/Session/injected_count) are
    // not probes and stay un-gated.
    if (ctx.path.rfind("src/common/fault.", 0) == 0)
        return;
    static const std::set<std::string> kGated = {"armed", "probe"};
    const Tokens& toks = ctx.lex.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (is_ident(toks[i], "fault") && toks[i + 1].text == "::" &&
            toks[i + 2].kind == TokKind::Ident &&
            kGated.count(toks[i + 2].text) > 0) {
            out.push_back(
                {"fault-gate", ctx.path, toks[i].line,
                 "direct call to fault::" + toks[i + 2].text +
                     "; use IMC_FAULT_ARMED()/IMC_FAULT_PROBE() so "
                     "IMC_FAULT_DISABLED builds fold every probe to "
                     "a constant"});
        }
    }
}

void
rule_fault_site(const FileContext& ctx, std::vector<Diagnostic>& out)
{
    // The fault header's macro definition spells the forwarded
    // arguments as identifiers.
    if (ctx.path.rfind("src/common/fault.", 0) == 0)
        return;
    // Literal-ness is checked here per file; membership in the
    // registered site table is the phase-2 fault-site cross-check
    // (project.cpp), which reads the table from fault.hpp itself
    // instead of a hardcoded copy.
    const Tokens& toks = ctx.lex.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!is_ident(toks[i], "IMC_FAULT_PROBE") ||
            toks[i + 1].text != "(")
            continue;
        if (toks[i + 2].kind != TokKind::String) {
            out.push_back(
                {"fault-site", ctx.path, toks[i].line,
                 "IMC_FAULT_PROBE site must be a string literal "
                 "(fault schedules and docs index sites by name)"});
        }
    }
}

} // namespace

std::set<std::string>
unordered_decl_names_in(const std::string& content)
{
    return unordered_decl_names(lex(content).tokens);
}

const std::map<std::string, std::string>&
rule_descriptions()
{
    static const std::map<std::string, std::string> kRules = {
        {"determinism-rand",
         "no wall-clock or libc randomness in figure-feeding code"},
        {"determinism-taint",
         "unordered-iteration/pointer/thread-id values must not "
         "reach digests, serialized output, or RNG fork names"},
        {"banned-number-parse",
         "no atoi/atof/strtol/stoi-family parsing"},
        {"banned-printf",
         "no printf-family output in library code"},
        {"banned-new-delete", "no naked new/delete"},
        {"config-error-context",
         "throw ConfigError must embed the offending flag/value"},
        {"header-guard",
         "guards named IMC_<PATH>_HPP with annotated #endif"},
        {"include-order",
         "own header, then <system>, then \"project\" includes"},
        {"obs-gate",
         "obs recording only via the gated IMC_OBS_* macros"},
        {"fault-gate",
         "fault probes only via the gated IMC_FAULT_* macros"},
        {"fault-site",
         "IMC_FAULT_PROBE sites must be registered string literals"},
        {"fault-site-dead",
         "every registered fault site must be probed somewhere"},
        {"obs-name",
         "IMC_OBS_* names in src/ must be registered in kObsNames"},
        {"obs-name-dead",
         "every registered obs name must be recorded somewhere"},
        {"include-cycle", "the project include graph must be a DAG"},
        {"layer-violation",
         "include edges must respect the layering policy"},
        {"layer-policy", "tools/imc_lint/layers.txt must parse"},
        {"lint-suppression",
         "suppressions must name a known rule and be justified"},
    };
    return kRules;
}

std::vector<Diagnostic>
run_rules(const FileContext& ctx, const Options& opts)
{
    std::vector<Diagnostic> out;
    const bool lib = ctx.category == Category::Library;
    const bool figure_feeding = lib || ctx.category == Category::Bench ||
                                ctx.category == Category::Example;
    const bool enabled_det =
        figure_feeding || ctx.category == Category::Tool;
    if (enabled_det)
        rule_determinism_rand(ctx, out);
    if (figure_feeding)
        rule_determinism_taint(ctx, out);
    rule_banned_number_parse(ctx, out);
    if (lib)
        rule_banned_printf(ctx, out);
    rule_banned_new_delete(ctx, out);
    rule_config_error_context(ctx, out);
    rule_header_guard(ctx, out);
    rule_include_order(ctx, out);
    if (lib) {
        rule_obs_gate(ctx, out);
        rule_fault_gate(ctx, out);
    }
    rule_fault_site(ctx, out);
    if (!opts.disabled_rules.empty()) {
        out.erase(std::remove_if(
                      out.begin(), out.end(),
                      [&](const Diagnostic& d) {
                          return opts.disabled_rules.count(d.rule) > 0;
                      }),
                  out.end());
    }
    return out;
}

// --- Index extraction (phase 1 facts for the phase-2 passes) ----------

namespace detail {

std::vector<IncludeRef>
extract_includes(const std::vector<std::string>& lines)
{
    std::vector<IncludeRef> out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& l = lines[i];
        std::size_t pos = l.find_first_not_of(" \t");
        if (pos == std::string::npos || l[pos] != '#')
            continue;
        pos = l.find_first_not_of(" \t", pos + 1);
        if (pos == std::string::npos ||
            l.compare(pos, 7, "include") != 0)
            continue;
        pos = l.find_first_of("<\"", pos + 7);
        if (pos == std::string::npos)
            continue; // computed include; out of scope
        const bool angle = l[pos] == '<';
        const char close = angle ? '>' : '"';
        const std::size_t end = l.find(close, pos + 1);
        if (end == std::string::npos)
            continue;
        out.push_back({static_cast<int>(i) + 1,
                       l.substr(pos + 1, end - pos - 1), angle});
    }
    return out;
}

std::vector<FaultProbe>
extract_fault_probes(const LexResult& lex, const std::string& path)
{
    std::vector<FaultProbe> out;
    if (path.rfind("src/common/fault.", 0) == 0)
        return out; // the macro definition forwards idents
    const Tokens& toks = lex.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!is_ident(toks[i], "IMC_FAULT_PROBE") ||
            toks[i + 1].text != "(")
            continue;
        const Token& site = toks[i + 2];
        if (site.kind == TokKind::String)
            out.push_back({site.line, site.text, true});
        else
            out.push_back({toks[i].line, "", false});
    }
    return out;
}

namespace {

/**
 * Normalize the name-expression tokens [b, e) to a registry pattern:
 * literal fragments concatenate, each maximal run of dynamic tokens
 * becomes one '*'. String-machinery identifiers (std::to_string,
 * .c_str()) are plumbing, not values, and are skipped.
 */
std::string
name_pattern(const Tokens& toks, std::size_t b, std::size_t e)
{
    static const std::set<std::string> kPlumbing = {
        "std", "string", "to_string", "c_str"};
    std::string pat;
    bool star_open = false;
    bool any = false;
    for (std::size_t j = b; j < e; ++j) {
        const Token& t = toks[j];
        if (t.kind == TokKind::String) {
            pat += t.text;
            star_open = false;
            any = true;
        } else if ((t.kind == TokKind::Ident &&
                    kPlumbing.count(t.text) == 0) ||
                   t.kind == TokKind::Number) {
            if (!star_open) {
                pat += '*';
                star_open = true;
            }
            any = true;
        }
    }
    return any ? pat : "*";
}

} // namespace

std::vector<ObsUse>
extract_obs_uses(const LexResult& lex, const std::string& path)
{
    std::vector<ObsUse> out;
    const Tokens& toks = lex.tokens;
    const bool obs_impl = path.rfind("src/common/obs.", 0) == 0;
    if (path == "src/common/obs.hpp")
        return out; // macro definitions + the registry itself
    if (obs_impl) {
        // obs.cpp records through direct calls (it IS the layer);
        // collect literal first arguments so internal names like
        // obs.rejected_samples still participate in the registry
        // cross-check.
        static const std::set<std::string> kRecorders = {
            "count", "observe", "gauge_set", "gauge_max",
            "trace_counter"};
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (toks[i].kind == TokKind::Ident &&
                kRecorders.count(toks[i].text) > 0 &&
                toks[i + 1].text == "(" &&
                toks[i + 2].kind == TokKind::String)
                out.push_back(
                    {toks[i + 2].line, toks[i + 2].text});
        }
        return out;
    }
    // First macro argument (second for IMC_OBS_SPAN: arg one is the
    // span variable name).
    static const std::set<std::string> kNameFirst = {
        "IMC_OBS_COUNT",   "IMC_OBS_GAUGE_SET", "IMC_OBS_GAUGE_MAX",
        "IMC_OBS_OBSERVE", "IMC_OBS_TRACE_COUNTER"};
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            toks[i + 1].text != "(")
            continue;
        const bool first = kNameFirst.count(toks[i].text) > 0;
        const bool span = toks[i].text == "IMC_OBS_SPAN";
        if (!first && !span)
            continue;
        // The argument ends at the first ',' at depth 1 or at the
        // matching ')'.
        std::size_t b = i + 2, e = b;
        int depth = 1;
        int commas_to_skip = span ? 1 : 0;
        for (std::size_t j = i + 2; j < toks.size(); ++j) {
            if (toks[j].text == "(") {
                ++depth;
            } else if (toks[j].text == ")") {
                if (--depth == 0) {
                    e = j;
                    break;
                }
            } else if (toks[j].text == "," && depth == 1) {
                if (commas_to_skip > 0) {
                    --commas_to_skip;
                    b = j + 1;
                    continue;
                }
                e = j;
                break;
            }
        }
        if (e > b)
            out.push_back(
                {toks[i].line, name_pattern(toks, b, e)});
    }
    return out;
}

std::vector<RegistryEntry>
extract_registry_array(const LexResult& lex, const char* array_name)
{
    std::vector<RegistryEntry> out;
    const Tokens& toks = lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!is_ident(toks[i], array_name))
            continue;
        std::size_t j = i + 1;
        while (j < toks.size() && toks[j].text != "{" &&
               toks[j].text != ";")
            ++j;
        if (j >= toks.size() || toks[j].text != "{")
            return out;
        int depth = 0;
        for (; j < toks.size(); ++j) {
            if (toks[j].text == "{")
                ++depth;
            else if (toks[j].text == "}") {
                if (--depth == 0)
                    break;
            } else if (toks[j].kind == TokKind::String)
                out.push_back({toks[j].line, toks[j].text});
        }
        return out;
    }
    return out;
}

} // namespace detail

} // namespace imc::lint
