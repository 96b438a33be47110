// Checker synthesis as code generation (the FoCs role in the paper's flow).
//
// Emits a standalone, dependency-free C++17 source file implementing a
// dynamic checker for one property. The generated monitor has the same
// semantics as the in-process Instance/PropertyChecker machinery (the
// differential test compiles and runs generated checkers against the
// library on shared traces):
//
//   class q3_checker {
//    public:
//     struct Values { uint64_t ds; uint64_t rdy; };   // typed observables
//     void on_event(uint64_t time_ns, const Values& v);
//     void finish();
//     uint64_t failures() const;  // holds(), activations(), events()
//   };
//
// Boolean subformulas compile to inline expressions; each temporal operator
// becomes a plain struct with explicit state and a step function — no
// virtual dispatch, no library dependency. Generated checkers construct a
// fresh obligation per activation (no instance pooling): they favour
// integration simplicity over PropertyChecker's instance recycling (Sec. IV
// point 3).
#ifndef REPRO_CHECKER_CODEGEN_H_
#define REPRO_CHECKER_CODEGEN_H_

#include <string>

#include "psl/ast.h"

namespace repro::checker {

// Generates the full source text of a checker for `formula` under the
// optional boolean activation `guard` (nullptr = activate at every event).
// `class_name` must be a valid C++ identifier; `header_comment` is included
// verbatim at the top.
std::string generate_checker_source(const std::string& class_name,
                                    const psl::ExprPtr& formula,
                                    const psl::ExprPtr& guard,
                                    const std::string& header_comment);

// Convenience wrappers naming the class `<name>_checker`.
std::string generate_checker(const psl::RtlProperty& property);
std::string generate_checker(const psl::TlmProperty& property);

}  // namespace repro::checker

#endif  // REPRO_CHECKER_CODEGEN_H_
