//===- AST.h - Tangram codelet language AST --------------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax tree for the Tangram codelet language (Figures 1 and 3 of
/// the paper). The hierarchy follows the Clang layout: `Expr` derives from
/// `Stmt`; declarations form their own `Decl` hierarchy. Nodes are allocated
/// and owned by the ASTContext; the tree holds raw non-owning pointers.
///
/// Semantic analysis (src/sema) fills in the "resolved" fields: expression
/// types, declaration references, builtin member kinds, callee kinds, and
/// codelet classification (atomic autonomous / compound / cooperative).
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_LANG_AST_H
#define TANGRAM_LANG_AST_H

#include "lang/Type.h"
#include "support/Casting.h"
#include "support/ReduceOp.h"
#include "support/SourceLocation.h"

#include <string>
#include <vector>

namespace tangram::lang {

class VarDecl;
class CodeletDecl;

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base of the statement hierarchy (expressions included, Clang-style).
class Stmt {
public:
  enum class Kind : unsigned char {
    Compound,
    DeclStmt,
    For,
    If,
    Return,
    // Expressions. Keep FirstExpr/LastExpr in sync.
    IntLiteral,
    FloatLiteral,
    DeclRef,
    Paren,
    Unary,
    Binary,
    Conditional,
    Call,
    MemberCall,
    Index,
  };
  static constexpr Kind FirstExprKind = Kind::IntLiteral;
  static constexpr Kind LastExprKind = Kind::Index;

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }

protected:
  Stmt(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}
  ~Stmt() = default;

private:
  Kind K;
  SourceLoc Loc;
};

/// `{ stmt... }`
class CompoundStmt : public Stmt {
public:
  CompoundStmt(std::vector<Stmt *> Body, SourceLoc Loc)
      : Stmt(Kind::Compound, Loc), Body(std::move(Body)) {}

  const std::vector<Stmt *> &getBody() const { return Body; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Compound; }

private:
  std::vector<Stmt *> Body;
};

/// A local variable declaration statement wrapping one VarDecl.
class DeclStmt : public Stmt {
public:
  DeclStmt(VarDecl *Var, SourceLoc Loc) : Stmt(Kind::DeclStmt, Loc), Var(Var) {}

  VarDecl *getVar() const { return Var; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::DeclStmt; }

private:
  VarDecl *Var;
};

class Expr;

/// `for (init; cond; inc) body`
class ForStmt : public Stmt {
public:
  ForStmt(Stmt *Init, Expr *Cond, Expr *Inc, Stmt *Body, SourceLoc Loc)
      : Stmt(Kind::For, Loc), Init(Init), Cond(Cond), Inc(Inc), Body(Body) {}

  Stmt *getInit() const { return Init; }
  Expr *getCond() const { return Cond; }
  Expr *getInc() const { return Inc; }
  Stmt *getBody() const { return Body; }
  void setBody(Stmt *S) { Body = S; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::For; }

private:
  Stmt *Init;
  Expr *Cond;
  Expr *Inc;
  Stmt *Body;
};

/// `if (cond) then [else else]`
class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLoc Loc)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *getCond() const { return Cond; }
  Stmt *getThen() const { return Then; }
  Stmt *getElse() const { return Else; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

/// `return [expr];`
class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLoc Loc)
      : Stmt(Kind::Return, Loc), Value(Value) {}

  Expr *getValue() const { return Value; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Return; }

private:
  Expr *Value;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Decl;

/// Base of all expressions. The type is filled in by Sema.
class Expr : public Stmt {
public:
  const Type *getType() const { return Ty; }
  void setType(const Type *T) { Ty = T; }

  /// Strips ParenExpr wrappers.
  const Expr *ignoreParens() const;
  Expr *ignoreParens() {
    return const_cast<Expr *>(
        static_cast<const Expr *>(this)->ignoreParens());
  }

  static bool classof(const Stmt *S) {
    return S->getKind() >= FirstExprKind && S->getKind() <= LastExprKind;
  }

protected:
  Expr(Kind K, SourceLoc Loc) : Stmt(K, Loc) {}

private:
  const Type *Ty = nullptr;
};

/// Integer literal (decimal).
class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(long long Value, SourceLoc Loc)
      : Expr(Kind::IntLiteral, Loc), Value(Value) {}

  long long getValue() const { return Value; }

  static bool classof(const Stmt *S) {
    return S->getKind() == Kind::IntLiteral;
  }

private:
  long long Value;
};

/// Floating-point literal.
class FloatLiteralExpr : public Expr {
public:
  FloatLiteralExpr(double Value, SourceLoc Loc)
      : Expr(Kind::FloatLiteral, Loc), Value(Value) {}

  double getValue() const { return Value; }

  static bool classof(const Stmt *S) {
    return S->getKind() == Kind::FloatLiteral;
  }

private:
  double Value;
};

/// A reference to a named declaration (variable or parameter). Sema links
/// `RefDecl`.
class DeclRefExpr : public Expr {
public:
  DeclRefExpr(std::string Name, SourceLoc Loc)
      : Expr(Kind::DeclRef, Loc), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }
  Decl *getDecl() const { return RefDecl; }
  void setDecl(Decl *D) { RefDecl = D; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::DeclRef; }

private:
  std::string Name;
  Decl *RefDecl = nullptr;
};

/// `( expr )`
class ParenExpr : public Expr {
public:
  ParenExpr(Expr *Sub, SourceLoc Loc) : Expr(Kind::Paren, Loc), Sub(Sub) {}

  Expr *getSubExpr() const { return Sub; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Paren; }

private:
  Expr *Sub;
};

enum class UnaryOpKind : unsigned char { Neg, Not, PreInc, PreDec };

/// Prefix unary operators.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOpKind Op, Expr *Sub, SourceLoc Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Sub(Sub) {}

  UnaryOpKind getOp() const { return Op; }
  Expr *getSubExpr() const { return Sub; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Unary; }

private:
  UnaryOpKind Op;
  Expr *Sub;
};

enum class BinaryOpKind : unsigned char {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  LT,
  GT,
  LE,
  GE,
  EQ,
  NE,
  LAnd,
  LOr,
  Assign,
  AddAssign,
  SubAssign,
  MulAssign,
  DivAssign,
};

/// True for `=`, `+=`, `-=`, `*=`, `/=`.
bool isAssignmentOp(BinaryOpKind Op);
/// For compound assignments, the underlying arithmetic op (`+=` -> Add).
BinaryOpKind getCompoundOpcode(BinaryOpKind Op);
/// Source spelling of \p Op ("+", "<=", "+=", ...).
const char *getBinaryOpSpelling(BinaryOpKind Op);
const char *getUnaryOpSpelling(UnaryOpKind Op);

/// Binary operators including (compound) assignments.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOpKind Op, Expr *LHS, Expr *RHS, SourceLoc Loc)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOpKind getOp() const { return Op; }
  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }
  void setRHS(Expr *E) { RHS = E; }
  bool isAssignment() const { return isAssignmentOp(Op); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Binary; }

private:
  BinaryOpKind Op;
  Expr *LHS;
  Expr *RHS;
};

/// `cond ? lhs : rhs`
class ConditionalExpr : public Expr {
public:
  ConditionalExpr(Expr *Cond, Expr *TrueExpr, Expr *FalseExpr, SourceLoc Loc)
      : Expr(Kind::Conditional, Loc), Cond(Cond), TrueExpr(TrueExpr),
        FalseExpr(FalseExpr) {}

  Expr *getCond() const { return Cond; }
  Expr *getTrueExpr() const { return TrueExpr; }
  Expr *getFalseExpr() const { return FalseExpr; }

  static bool classof(const Stmt *S) {
    return S->getKind() == Kind::Conditional;
  }

private:
  Expr *Cond;
  Expr *TrueExpr;
  Expr *FalseExpr;
};

/// What a free-function call resolved to.
enum class CalleeKind : unsigned char {
  Unresolved,
  Partition, ///< The Partition(c, n, start, inc, end) primitive.
  Spectrum,  ///< A recursive spectrum call, e.g. sum(map).
};

/// A free-function call: `partition(in, p, start, inc, end)` or a spectrum
/// call such as `sum(map)`.
class CallExpr : public Expr {
public:
  CallExpr(std::string Callee, std::vector<Expr *> Args, SourceLoc Loc)
      : Expr(Kind::Call, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const std::string &getCallee() const { return Callee; }
  const std::vector<Expr *> &getArgs() const { return Args; }
  CalleeKind getCalleeKind() const { return Resolved; }
  void setCalleeKind(CalleeKind CK) { Resolved = CK; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Call; }

private:
  std::string Callee;
  std::vector<Expr *> Args;
  CalleeKind Resolved = CalleeKind::Unresolved;
};

/// What a member call resolved to (Fig. 2 plus the Section III-A Map APIs).
enum class MemberKind : unsigned char {
  Unresolved,
  ArraySize,      ///< in.Size()
  ArrayStride,    ///< in.Stride()
  VectorSize,     ///< vthread.Size()      -> warpSize
  VectorMaxSize,  ///< vthread.MaxSize()   -> 32
  VectorThreadId, ///< vthread.ThreadId()  -> threadIdx.x
  VectorLaneId,   ///< vthread.LaneId()    -> threadIdx.x % warpSize
  VectorVectorId, ///< vthread.VectorId()  -> threadIdx.x / warpSize
  MapAtomic,      ///< map.atomicAdd()/Sub()/Max()/Min() (Section III-A)
};

/// A member call such as `in.Size()`, `vthread.LaneId()`, `map.atomicAdd()`.
class MemberCallExpr : public Expr {
public:
  MemberCallExpr(Expr *Base, std::string Member, std::vector<Expr *> Args,
                 SourceLoc Loc)
      : Expr(Kind::MemberCall, Loc), Base(Base), Member(std::move(Member)),
        Args(std::move(Args)) {}

  Expr *getBase() const { return Base; }
  const std::string &getMember() const { return Member; }
  const std::vector<Expr *> &getArgs() const { return Args; }

  MemberKind getMemberKind() const { return Resolved; }
  void setMemberKind(MemberKind MK) { Resolved = MK; }
  /// For MapAtomic members: which operator.
  ReduceOp getAtomicOp() const { return AtomicOp; }
  void setAtomicOp(ReduceOp Op) { AtomicOp = Op; }

  static bool classof(const Stmt *S) {
    return S->getKind() == Kind::MemberCall;
  }

private:
  Expr *Base;
  std::string Member;
  std::vector<Expr *> Args;
  MemberKind Resolved = MemberKind::Unresolved;
  ReduceOp AtomicOp = ReduceOp::Add;
};

/// `base[index]`
class IndexExpr : public Expr {
public:
  IndexExpr(Expr *Base, Expr *Index, SourceLoc Loc)
      : Expr(Kind::Index, Loc), Base(Base), Index(Index) {}

  Expr *getBase() const { return Base; }
  Expr *getIndex() const { return Index; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Index; }

private:
  Expr *Base;
  Expr *Index;
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// Base of the declaration hierarchy.
class Decl {
public:
  enum class Kind : unsigned char { Var, Param, Codelet };

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }
  const std::string &getName() const { return Name; }

protected:
  Decl(Kind K, std::string Name, SourceLoc Loc)
      : K(K), Name(std::move(Name)), Loc(Loc) {}
  ~Decl() = default;

private:
  Kind K;
  std::string Name;
  SourceLoc Loc;
};

/// A declaration with a value type (variables and parameters).
class ValueDecl : public Decl {
public:
  const Type *getType() const { return Ty; }
  void setType(const Type *T) { Ty = T; }

  static bool classof(const Decl *D) {
    return D->getKind() == Kind::Var || D->getKind() == Kind::Param;
  }

protected:
  ValueDecl(Kind K, std::string Name, const Type *Ty, SourceLoc Loc)
      : Decl(K, std::move(Name), Loc), Ty(Ty) {}

private:
  const Type *Ty;
};

/// Qualifier set on a variable declaration. `Atomic` carries the new
/// shared-memory atomic qualifiers from Section III-B (`_atomicAdd` etc.),
/// used in conjunction with `__shared`.
struct VarQualifiers {
  bool Shared = false;
  bool Tunable = false;
  bool HasAtomic = false;
  ReduceOp Atomic = ReduceOp::Add;

  bool any() const { return Shared || Tunable || HasAtomic; }
};

/// A local variable or primitive declaration:
///   `__tunable unsigned p;`
///   `__shared int tmp[in.Size()];`
///   `__shared _atomicAdd int partial;`
///   `Vector vthread();`
///   `Map map(sum, partition(in, p, start, inc, end));`
class VarDecl : public ValueDecl {
public:
  VarDecl(std::string Name, const Type *Ty, VarQualifiers Quals,
          SourceLoc Loc)
      : ValueDecl(Kind::Var, std::move(Name), Ty, Loc), Quals(Quals) {}

  const VarQualifiers &getQualifiers() const { return Quals; }
  bool isShared() const { return Quals.Shared; }
  bool isTunable() const { return Quals.Tunable; }
  bool hasAtomicQualifier() const { return Quals.HasAtomic; }
  ReduceOp getAtomicOp() const { return Quals.Atomic; }

  /// For `T name[size]` declarations: the element count expression.
  Expr *getArraySize() const { return ArraySize; }
  void setArraySize(Expr *E) { ArraySize = E; }
  bool isArrayForm() const { return ArraySize != nullptr; }

  /// For `T name = init;` declarations.
  Expr *getInit() const { return Init; }
  void setInit(Expr *E) { Init = E; }

  /// For `Vector v();` / `Map m(f, partition(...));` constructor syntax.
  const std::vector<Expr *> &getCtorArgs() const { return CtorArgs; }
  void setCtorArgs(std::vector<Expr *> Args) { CtorArgs = std::move(Args); }
  bool hasCtorForm() const { return CtorForm; }
  void setCtorForm(bool V) { CtorForm = V; }

  static bool classof(const Decl *D) { return D->getKind() == Kind::Var; }

private:
  VarQualifiers Quals;
  Expr *ArraySize = nullptr;
  Expr *Init = nullptr;
  std::vector<Expr *> CtorArgs;
  bool CtorForm = false;
};

/// A codelet parameter, e.g. `const Array<1,int> in`.
class ParamDecl : public ValueDecl {
public:
  ParamDecl(std::string Name, const Type *Ty, SourceLoc Loc)
      : ValueDecl(Kind::Param, std::move(Name), Ty, Loc) {}

  static bool classof(const Decl *D) { return D->getKind() == Kind::Param; }
};

/// Classification assigned by Sema (Section II-B1).
enum class CodeletClass : unsigned char {
  Unknown,
  AtomicAutonomous, ///< Indivisible, single-thread computation (Fig. 1a).
  Compound,         ///< Decomposable via Map/Partition (Fig. 1b).
  Cooperative,      ///< Multi-thread via the Vector primitive (Fig. 1c, 3).
};

const char *getCodeletClassName(CodeletClass C);

/// A codelet definition:
///   `__codelet [__coop] [__tag(name)] int sum(const Array<1,int> in) {...}`
class CodeletDecl : public Decl {
public:
  CodeletDecl(std::string Name, const Type *ReturnType,
              std::vector<ParamDecl *> Params, CompoundStmt *Body,
              bool IsCoop, std::string Tag, SourceLoc Loc)
      : Decl(Kind::Codelet, std::move(Name), Loc), ReturnType(ReturnType),
        Params(std::move(Params)), Body(Body), IsCoop(IsCoop),
        Tag(std::move(Tag)) {}

  const Type *getReturnType() const { return ReturnType; }
  const std::vector<ParamDecl *> &getParams() const { return Params; }
  CompoundStmt *getBody() const { return Body; }
  void setBody(CompoundStmt *B) { Body = B; }

  /// True if declared with the `__coop` qualifier.
  bool isCoopQualified() const { return IsCoop; }
  /// The `__tag(name)` label, empty if absent.
  const std::string &getTag() const { return Tag; }

  CodeletClass getCodeletClass() const { return Class; }
  void setCodeletClass(CodeletClass C) { Class = C; }

  static bool classof(const Decl *D) { return D->getKind() == Kind::Codelet; }

private:
  const Type *ReturnType;
  std::vector<ParamDecl *> Params;
  CompoundStmt *Body;
  bool IsCoop;
  std::string Tag;
  CodeletClass Class = CodeletClass::Unknown;
};

/// A parsed source buffer: the list of codelets. Codelets sharing a name
/// implement the same spectrum.
struct TranslationUnit {
  std::vector<CodeletDecl *> Codelets;

  /// The unit-level reduction-axis declaration: `__reduce(<op>, <type>);`
  /// before the first codelet. Absent (HasReduceDecl == false) the unit
  /// carries the historical default, a float Add reduction.
  bool HasReduceDecl = false;
  ReduceOp DeclaredOp = ReduceOp::Add;
  /// The declared element type (one of the scalar types); null when no
  /// directive is present.
  const Type *DeclaredElem = nullptr;

  /// All codelets implementing the spectrum \p Name.
  std::vector<CodeletDecl *> getSpectrum(const std::string &Name) const {
    std::vector<CodeletDecl *> Result;
    for (CodeletDecl *C : Codelets)
      if (C->getName() == Name)
        Result.push_back(C);
    return Result;
  }

  /// Finds the codelet with tag \p Tag, or null.
  CodeletDecl *findByTag(const std::string &Tag) const {
    for (CodeletDecl *C : Codelets)
      if (C->getTag() == Tag)
        return C;
    return nullptr;
  }
};

} // namespace tangram::lang

#endif // TANGRAM_LANG_AST_H
