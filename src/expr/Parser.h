//===- expr/Parser.h - Query-language parser and elaborator -----*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser and elaborator for the ANOSY query DSL. The
/// elaborator inlines helper `def` calls (call-by-name substitution of the
/// argument expressions), type-checks int vs bool sorts, resolves field
/// references against the declared secret schema, and — following §5.1 —
/// rejects recursive definitions and calls to unknown functions. It also
/// enforces the fragment's int64 rule: a query, classifier or inlined def
/// whose arithmetic can take a value outside int64 at some point of the
/// declared schema is rejected with ErrorCode::UnsupportedQuery, naming
/// the declaration.
///
/// Grammar (see expr/Lexer.h for the token set):
/// \code
///   module    := schemaDecl (defDecl | queryDecl)*
///   schemaDecl:= 'secret' IDENT '{' field (',' field)* '}'
///   field     := IDENT ':' 'int' '[' intLit ',' intLit ']'
///   defDecl   := 'def' IDENT '(' params? ')' ':' ('int'|'bool') '=' expr
///   queryDecl := 'query' IDENT '=' expr
///   expr      := orExpr ('==>' expr)?                 -- right assoc
///   orExpr    := andExpr ('||' andExpr)*
///   andExpr   := notExpr ('&&' notExpr)*
///   notExpr   := '!' notExpr | cmpExpr
///   cmpExpr   := addExpr (('=='|'!='|'<'|'<='|'>'|'>=') addExpr)?
///   addExpr   := mulExpr (('+'|'-') mulExpr)*
///   mulExpr   := unary ('*' unary)*
///   unary     := '-' unary | primary
///   primary   := intLit | 'true' | 'false' | IDENT ('(' args ')')?
///             | 'abs' '(' expr ')' | 'min' '(' expr ',' expr ')'
///             | 'max' '(' expr ',' expr ')'
///             | 'if' expr 'then' expr 'else' expr | '(' expr ')'
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_EXPR_PARSER_H
#define ANOSY_EXPR_PARSER_H

#include "expr/Module.h"
#include "support/Result.h"

#include <string>

namespace anosy {

/// Parses and elaborates a full module source.
Result<Module> parseModule(const std::string &Source);

/// Parses a single boolean query expression against an existing schema
/// (handy for tests and for programmatic query construction).
Result<ExprRef> parseQueryExpr(const Schema &S, const std::string &Source);

/// Parses a standalone `secret Name { ... }` declaration (used by the
/// knowledge-base loader in core/ArtifactIO).
Result<Schema> parseSchema(const std::string &Source);

} // namespace anosy

#endif // ANOSY_EXPR_PARSER_H
